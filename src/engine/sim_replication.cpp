#include "engine/sim_replication.hpp"

namespace streamflow {

namespace {

const std::vector<std::string>& teg_metric_names() {
  static const std::vector<std::string> names{
      "throughput", "in_order_throughput", "completed", "elapsed", "horizon"};
  return names;
}

const std::vector<std::string>& pipeline_metric_names() {
  static const std::vector<std::string> names{
      "throughput", "in_order_throughput", "completed",  "elapsed",
      "makespan",   "mean_latency",        "max_latency"};
  return names;
}

std::vector<double> to_row(const TegSimResult& r) {
  return {r.throughput, r.in_order_throughput,
          static_cast<double>(r.completed), r.elapsed, r.horizon};
}

std::vector<double> to_row(const PipelineSimResult& r) {
  return {r.throughput, r.in_order_throughput,
          static_cast<double>(r.completed), r.elapsed,
          r.makespan,   r.mean_latency,
          r.max_latency};
}

}  // namespace

ReplicatedResult run_replicated_teg(const TimedEventGraph& graph,
                                    const std::vector<DistributionPtr>& laws,
                                    const TegSimOptions& sim_options,
                                    const ExperimentOptions& options) {
  sim_options.validate();  // fail in the caller, not inside a worker
  ExperimentRunner runner(options);
  return runner.run(teg_metric_names(),
                    [&](Prng& prng, std::size_t /*replication*/) {
                      return to_row(simulate_teg(graph, laws, prng,
                                                 sim_options));
                    });
}

ReplicatedResult run_replicated_pipeline(const Mapping& mapping,
                                         ExecutionModel model,
                                         const StochasticTiming& timing,
                                         const PipelineSimOptions& sim_options,
                                         const ExperimentOptions& options) {
  sim_options.validate();
  ExperimentRunner runner(options);
  return runner.run(pipeline_metric_names(),
                    [&](Prng& prng, std::size_t /*replication*/) {
                      return to_row(simulate_pipeline(mapping, model, timing,
                                                      prng, sim_options));
                    });
}

}  // namespace streamflow
