// Stochastic simulation of a timed event graph — the analog of the paper's
// `eg_sim` (ERS toolbox). Event graphs are conflict-free (every place has
// one producer and one consumer), so the execution obeys the (max,plus)
// recurrence
//   C_t(k) = d_t(k) + max over input places p=(s -> t) of C_s(k - w_p),
// where C_t(k) is the completion of t's k-th firing, d_t(k) the sampled
// firing duration, and w_p the initial marking of p (0 or 1 in our nets).
// Processing transitions in topological order of the token-free subgraph
// (acyclic by liveness) makes each round O(V + E).
#pragma once

#include <cstdint>
#include <vector>

#include "dist/batch_sampler.hpp"
#include "dist/distribution.hpp"
#include "model/timing.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

struct TegSimOptions {
  /// Rounds to simulate: each round fires every transition once, i.e.
  /// completes m data sets (m = TPN rows).
  std::int64_t rounds = 2'000;
  /// Fraction of rounds discarded as transient before measuring.
  double warmup_fraction = 0.2;
  /// Seed for the seed-taking simulate_teg overload; ignored when a Prng is
  /// injected (the experiment engine derives substreams itself).
  std::uint64_t seed = 42;
  /// Refill kernel of the per-transition samplers: each transition draws
  /// from its own pure split() substream of the injected stream's entry
  /// state, served through a SIMD-refilled BatchSampler — deterministic for
  /// a given (graph, laws, stream state) and independent of everything
  /// else. kAuto picks the best the CPU supports. Tests force
  /// scalar/SSE4/AVX2 to pin byte-equality per path.
  simd::Isa refill_isa = simd::Isa::kAuto;

  /// Rejects out-of-range settings (rounds < 10, warmup_fraction outside
  /// [0, 1) — including NaN). Called by every simulate entry point.
  void validate() const;
};

struct TegSimResult {
  /// Measured steady-state completion throughput (data sets per time unit).
  double throughput = 0.0;
  /// In-order delivery rate: paced by the slowest output row (m times the
  /// smallest per-row rate).
  double in_order_throughput = 0.0;
  /// Data sets completed in the measured window.
  std::int64_t completed = 0;
  /// Time span of the measured window.
  double elapsed = 0.0;
  /// Completion time of the very last firing (total simulated horizon).
  double horizon = 0.0;
};

/// Per-transition firing-time laws for a TPN built from `mapping`:
/// compute transitions get timing.comp(proc), communication transitions get
/// timing.comm(sender, receiver).
std::vector<DistributionPtr> transition_laws(const TimedEventGraph& graph,
                                             const StochasticTiming& timing);

/// Simulates the graph with one law per transition, drawing every firing
/// time from the injected generator — the replication-friendly core: the
/// experiment engine hands each replication its own substream. options.seed
/// is ignored here.
TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          Prng& prng, const TegSimOptions& options = {});

/// Convenience overload seeding a fresh generator from options.seed.
TegSimResult simulate_teg(const TimedEventGraph& graph,
                          const std::vector<DistributionPtr>& laws,
                          const TegSimOptions& options = {});

/// Convenience overload: constant firing times taken from the transitions'
/// deterministic durations.
TegSimResult simulate_teg_deterministic(const TimedEventGraph& graph,
                                        const TegSimOptions& options = {});

}  // namespace streamflow
