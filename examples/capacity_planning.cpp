// Capacity planning with throughput guarantees when only MEANS are known.
//
// In production you rarely know the law of per-item processing times — but
// you usually know the means, and "a partial execution does not increase
// the remaining work" (N.B.U.E.) is a mild assumption. Theorem 7 then gives
// a GUARANTEED throughput interval for any such law:
//   [exponential-case rho, deterministic-case rho].
//
// This example sizes a two-tier ingest/transform service against a target
// rate: for every (ingest, transform) replication pair it prints the
// guaranteed interval and picks the cheapest configuration whose *lower*
// bound meets the target — a provably safe deployment.
//
// Build & run:  ./build/examples/capacity_planning
#include <iomanip>
#include <iostream>
#include <optional>

#include "core/analyzer.hpp"
#include "engine/sim_replication.hpp"
#include "sim/pipeline_sim.hpp"

namespace {

streamflow::Mapping build(std::size_t ingest, std::size_t transform) {
  using namespace streamflow;
  // 3-stage service: receive -> transform -> store.
  Application app({1.0, 9.0, 1.5}, {1.0, 6.0});
  std::vector<double> speeds{8.0};  // the receiver frontend
  for (std::size_t i = 0; i < ingest; ++i) speeds.push_back(5.0);
  for (std::size_t t = 0; t < transform; ++t) speeds.push_back(12.0);
  Platform platform = Platform::fully_connected(speeds, 6.0);
  std::vector<std::size_t> ingest_team, transform_team;
  for (std::size_t i = 0; i < ingest; ++i) ingest_team.push_back(1 + i);
  for (std::size_t t = 0; t < transform; ++t)
    transform_team.push_back(1 + ingest + t);
  // Stage 1 on the frontend, the heavy transform stage on the transform
  // tier, the store stage on the ingest/storage tier.
  return Mapping(make_instance(app, platform),
                 {{0}, transform_team, ingest_team});
}

}  // namespace

int main() {
  using namespace streamflow;
  const double target = 2.5;  // required items per second

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "target sustained rate: " << target << " items/s\n\n";
  std::cout << "transform x store | guaranteed interval [lo, hi] | nodes | "
               "meets target?\n";
  std::cout << "------------------+------------------------------+-------+--"
               "------------\n";

  std::optional<std::pair<std::size_t, std::size_t>> best;
  std::size_t best_nodes = 1'000'000;
  for (std::size_t transform = 1; transform <= 5; ++transform) {
    for (std::size_t store = 1; store <= 4; ++store) {
      const Mapping mapping = build(store, transform);
      const NbueBounds bounds =
          nbue_throughput_bounds(mapping, ExecutionModel::kOverlap);
      const std::size_t nodes = 1 + store + transform;
      const bool ok = bounds.lower >= target;
      std::cout << "      " << transform << " x " << store
                << "       |        [" << std::setw(6) << bounds.lower << ", "
                << std::setw(6) << bounds.upper << "]      |   " << nodes
                << "   |  " << (ok ? "YES" : "no") << "\n";
      if (ok && nodes < best_nodes) {
        best_nodes = nodes;
        best = {transform, store};
      }
    }
  }

  if (best) {
    const auto [transform, store] = *best;
    std::cout << "\ncheapest provably-safe deployment: " << transform
              << " transform + " << store << " store nodes (" << best_nodes
              << " total)\n";
    // Validate the guarantee against a nasty-but-NBUE law: truncated normal
    // with large variance. Eight replications on the experiment engine (one
    // jump-ahead substream each, all cores) turn the single spot check into
    // a confidence interval — and the guarantee must hold for EVERY
    // replication, not merely on average.
    const Mapping mapping = build(store, transform);
    PipelineSimOptions options;
    options.data_sets = 60'000;
    ExperimentOptions experiment;
    experiment.replications = 8;
    const ReplicatedResult sim = run_replicated_pipeline(
        mapping, ExecutionModel::kOverlap,
        StochasticTiming::scaled(mapping, *make_truncated_normal(1.0, 0.6)),
        options, experiment);
    const MetricSummary& throughput = sim.metric("throughput");
    std::cout << "validation with truncated-normal times: " << throughput.mean
              << " +/- " << throughput.ci95_halfwidth << " items/s (95% CI, "
              << sim.replications << " replications)\n";
    if (throughput.min < target) {
      std::cout << "GUARANTEE VIOLATED: worst replication " << throughput.min
                << " < " << target << "\n";
      return 1;
    }
    std::cout << "worst replication " << throughput.min << " >= " << target
              << " as guaranteed\n";
  } else {
    std::cout << "\nno configuration up to 5x4 meets the target — scale the "
                 "hardware instead.\n";
  }
  return 0;
}
