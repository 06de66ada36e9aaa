// Direct discrete-event simulation of the replicated pipeline — the analog
// of the paper's SimGrid experiments, implemented independently of the TPN
// model (it unrolls the system semantics per data set). Agreement between
// this simulator and the event-graph analyses/simulation is the "fidelity"
// experiment of §7.4.
//
// Overlap semantics: per processor, the receive port, compute unit, and send
// port are three independent serial resources; buffers between them are
// unbounded.
// Strict semantics: each processor runs receive -> compute -> send as one
// serial loop; it starts receiving data set n + R only after finishing the
// send for data set n.
//
// Also implements the "associated case" of §6.2: per data set, the stage
// work w_i(n) and file size delta_i(n) are drawn once and shared by all
// resources touching that data set, creating the positive correlation the
// paper studies (Theorem 8).
#pragma once

#include <cstdint>

#include "dist/batch_sampler.hpp"
#include "dist/distribution.hpp"
#include "model/timing.hpp"

namespace streamflow {

struct PipelineSimOptions {
  /// Number of data sets pushed through the pipeline.
  std::int64_t data_sets = 10'000;
  /// Fraction of data sets discarded as transient before measuring. Zero
  /// reproduces the paper's SimGrid protocol (completed / total time).
  double warmup_fraction = 0.2;
  /// Seed for the seed-taking simulate overloads; ignored when a Prng is
  /// injected (the experiment engine derives substreams itself).
  std::uint64_t seed = 42;
  /// Fraction of the nominal bandwidth actually achievable; the paper's
  /// SimGrid runs use 0.92 (communication times are divided by this).
  double bandwidth_efficiency = 1.0;
  /// Refill kernel of the per-resource samplers: each resource (team
  /// member's compute unit, link, association multiplier slot) draws from
  /// its own pure split() substream of the injected stream's entry state,
  /// served through SIMD-refilled BatchSamplers. kAuto picks the best the
  /// CPU supports. Tests force scalar/SSE4/AVX2 to pin byte-equality per
  /// path.
  simd::Isa refill_isa = simd::Isa::kAuto;

  /// Rejects out-of-range settings (data_sets < 10, warmup_fraction outside
  /// [0, 1) — including NaN — or bandwidth_efficiency outside (0, 1]).
  /// Called by every simulate entry point.
  void validate() const;
};

struct PipelineSimResult {
  double throughput = 0.0;     ///< completion rate (data sets per time)
  double in_order_throughput = 0.0;  ///< paced by the slowest last-stage
                                     ///< member (ordered delivery)
  std::int64_t completed = 0;  ///< data sets counted in the window
  double elapsed = 0.0;        ///< window length
  double makespan = 0.0;       ///< completion time of the last data set
  /// Traversal latency (completion minus the start of the data set's first
  /// computation), over the measured window. In the saturated regime
  /// waiting before stage 1 is unbounded, so the traversal latency is the
  /// meaningful per-item delay.
  double mean_latency = 0.0;
  double max_latency = 0.0;
};

/// Independent-case simulation: per-resource I.I.D. laws from `timing`,
/// drawing every time from the injected generator — the replication-friendly
/// core used by the experiment engine. options.seed is ignored here.
PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing, Prng& prng,
                                    const PipelineSimOptions& options = {});

/// Convenience overload seeding a fresh generator from options.seed.
PipelineSimResult simulate_pipeline(const Mapping& mapping,
                                    ExecutionModel model,
                                    const StochasticTiming& timing,
                                    const PipelineSimOptions& options = {});

/// How far the per-data-set size correlation of §6.2 reaches.
enum class AssociationScope {
  /// One size multiplier per data set, shared by EVERY computation and
  /// transfer of that data set along its whole path ("if one instance
  /// happens to be large, it is large at every stage"). NOTE: this is a
  /// correlation STRONGER than §6.2's model, which keeps stage works and
  /// file sizes mutually independent across columns; path-wide correlation
  /// makes each row's total service block more variable (icx-larger) and
  /// can push the Strict throughput BELOW the independent case. Kept as an
  /// extension study.
  kPerDataSet,
  /// One independent multiplier per (stage, data set) and per (file, data
  /// set) — §6.2's model exactly. Each data set materializes one processor
  /// per stage and one link per file, so the associated coupling between
  /// same-team processors never interacts dynamically: this is
  /// distributionally identical to the independent case, and Theorem 8's
  /// ordering det >= associated >= independent holds with equality on the
  /// right.
  kPerStage,
};

/// Associated-case simulation: multipliers drawn from `size_law` rescaled
/// to mean 1 and applied to the deterministic times (§6.2, Theorem 8).
/// options.seed is ignored; the injected generator drives every draw.
PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    Prng& prng, const PipelineSimOptions& options = {},
    AssociationScope scope = AssociationScope::kPerDataSet);

/// Convenience overload seeding a fresh generator from options.seed.
PipelineSimResult simulate_pipeline_associated(
    const Mapping& mapping, ExecutionModel model, const Distribution& size_law,
    const PipelineSimOptions& options = {},
    AssociationScope scope = AssociationScope::kPerDataSet);

}  // namespace streamflow
