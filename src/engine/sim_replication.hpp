// Replicated runs of the two simulators on the experiment engine.
//
// Each wrapper validates the simulation options once, then fans R
// replications out over the pool; replication k draws exclusively from
// substream k of the experiment seed (the sim options' own `seed` field is
// ignored). Metric order is fixed and documented per wrapper so callers can
// index ReplicatedResult columns stably.
//
// Determinism contract: every wrapper inherits the engine guarantee — the
// ReplicatedResult is a pure function of (inputs, seed, replications),
// bit-identical for any thread count. The mapping (and the immutable
// Instance behind it) is shared read-only across all replication threads;
// each replication owns its simulator state.
#pragma once

#include "engine/experiment_runner.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"

namespace streamflow {

/// Metrics (in order): throughput, in_order_throughput, completed, elapsed,
/// horizon — the fields of TegSimResult.
ReplicatedResult run_replicated_teg(const TimedEventGraph& graph,
                                    const std::vector<DistributionPtr>& laws,
                                    const TegSimOptions& sim_options = {},
                                    const ExperimentOptions& options = {});

/// Metrics (in order): throughput, in_order_throughput, completed, elapsed,
/// makespan, mean_latency, max_latency — the fields of PipelineSimResult.
ReplicatedResult run_replicated_pipeline(
    const Mapping& mapping, ExecutionModel model,
    const StochasticTiming& timing, const PipelineSimOptions& sim_options = {},
    const ExperimentOptions& options = {});

}  // namespace streamflow
