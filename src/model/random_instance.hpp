// Random instance generation following the Section 7 experimental protocol
// (Table 1): applications with n stages, platforms with M processors, all
// processor speeds / link bandwidths drawn so that computation and
// communication times fall uniformly in configured ranges, and random
// replication (every stage gets at least one processor).
#pragma once

#include <cstdint>

#include "common/prng.hpp"
#include "model/mapping.hpp"

namespace streamflow {

struct RandomInstanceOptions {
  std::size_t num_stages = 10;
  std::size_t num_processors = 20;
  /// Computation times drawn uniformly from [comp_min, comp_max] (seconds).
  double comp_min = 5.0;
  double comp_max = 15.0;
  /// Communication times drawn uniformly from [comm_min, comm_max] (seconds).
  double comm_min = 5.0;
  double comm_max = 15.0;
  /// Cap on the lcm of the replication factors (TPN row count); the
  /// generator re-draws team sizes until the cap holds.
  std::int64_t max_paths = 4096;

  // ---- Regime knobs (scenario-corpus generation, fuzz/corpus.hpp) ---------
  //
  // The three knobs below extend the Table 1 protocol into the regimes the
  // differential harness needs to cover. All default to "off", in which case
  // the draw sequence is exactly the pre-knob generator's (pinned by the
  // cross-seed determinism test). Draw order with knobs on: team sizes,
  // processor shuffle, degenerate-stage coin flips (one uniform per stage,
  // in stage order), computation times, then per-column / per-link
  // communication times with their heterogeneity multipliers (multiplier
  // drawn immediately after the time it scales).

  /// Probability that a stage is "degenerate": its computation times are
  /// scaled by `degenerate_scale` (near-zero-cost stages — pure forwarding
  /// stages whose compute never binds). One coin flip per stage.
  double zero_cost_fraction = 0.0;
  /// Scale applied to a degenerate stage's computation times.
  double degenerate_scale = 1e-4;
  /// Heterogeneous-bandwidth platforms: every communication time is
  /// multiplied by an independent log-uniform factor in [1/h, h], pushing
  /// link speeds far outside the uniform [comm_min, comm_max] band. 1 (the
  /// default) disables the multiplier.
  double bandwidth_heterogeneity = 1.0;
  /// Deep-replication team sizes: when > 0, team sizes come from a
  /// preferential-attachment composition (every stage gets one processor,
  /// each remaining processor joins a team with probability proportional to
  /// size^team_skew) instead of the uniform composition — large skews
  /// concentrate the processors into one big team (large R_i). 0 keeps the
  /// uniform composition.
  double team_skew = 0.0;

  /// Rejects out-of-range knob settings (fractions outside [0, 1], scales
  /// and ratios that are not positive / not >= 1, NaN anywhere).
  void validate() const;
};

/// Generates a random replicated mapping. All processors are used: the M
/// processors are partitioned into n non-empty teams uniformly at random.
Mapping random_instance(const RandomInstanceOptions& options, Prng& prng);

}  // namespace streamflow
