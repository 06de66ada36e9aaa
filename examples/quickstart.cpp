// Quickstart: the 10-minute tour of streamflow.
//
// We build a 4-stage streaming application mapped onto 7 processors with a
// replicated middle stage (the shape of the paper's Example A), then ask
// every question the library can answer:
//   * deterministic throughput (critical cycles, Section 4),
//   * exponential throughput (Theorems 3/4), for both execution models,
//   * the N.B.U.E. sandwich (Theorem 7),
//   * and we confirm everything by simulation.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/analyzer.hpp"
#include "sim/pipeline_sim.hpp"

int main() {
  using namespace streamflow;

  // --- 1. The application: a linear chain T1 -> T2 -> T3 -> T4. ----------
  // Stage works in flops, inter-stage files in bytes.
  Application app({/*w=*/2.0, 6.0, 4.0, 1.0}, {/*delta=*/1.0, 3.0, 1.0});

  // --- 2. The platform: 7 heterogeneous processors, fully connected. -----
  Platform platform = Platform::fully_connected(
      {/*speeds=*/2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5}, /*bandwidth=*/2.0);
  platform.set_bandwidth(1, 4, 0.5);  // one slow link for flavor

  // --- 3. The one-to-many mapping: T2 on {P1,P2}, T3 on {P3,P4,P5}. ------
  Mapping mapping(make_instance(app, platform),
                  {{0}, {1, 2}, {3, 4, 5}, {6}});
  std::cout << mapping.to_string() << "\n";
  std::cout << "round-robin paths m = lcm(1,2,3,1) = " << mapping.num_paths()
            << "\n\n";

  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    std::cout << "=== " << to_string(model) << " model ===\n";

    // Deterministic (constant times) analysis.
    const auto det = deterministic_throughput(mapping, model);
    std::cout << "  deterministic throughput : " << det.throughput
              << " data sets per second\n";
    std::cout << "  in-order delivery rate   : " << det.in_order_throughput
              << "\n";
    std::cout << "  critical-resource bound  : "
              << det.critical_resource_throughput
              << (det.critical_resource_attained ? "  (attained)"
                                                 : "  (NOT attained)")
              << "\n";

    // Exponential times with the same means.
    const auto exp = exponential_throughput(mapping, model);
    std::cout << "  exponential throughput   : " << exp.throughput << "  ("
              << (exp.method_used == ExponentialMethod::kColumns
                      ? "column method, Thm 3/4"
                      : "general CTMC, Thm 2")
              << ")\n";

    // Theorem 7: any N.B.U.E. law with these means lands in between.
    const NbueBounds bounds = nbue_throughput_bounds(mapping, model);
    std::cout << "  N.B.U.E. sandwich        : [" << bounds.lower << ", "
              << bounds.upper << "]\n";

    // Confirm by simulating the real system with exponential times.
    PipelineSimOptions options;
    options.data_sets = 50'000;
    const auto sim = simulate_pipeline(
        mapping, model, StochasticTiming::exponential(mapping), options);
    std::cout << "  simulated (50k data sets): " << sim.throughput << "\n\n";
  }

  // Where is the bottleneck? The component diagnostics tell us.
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  std::cout << "component diagnostics (Overlap, exponential):\n";
  for (const auto& c : exp.components) {
    std::cout << "  " << c.label << ": saturated " << c.inner << ", effective "
              << c.effective << (c.bottleneck ? "  <- gated upstream" : "")
              << "\n";
  }
  return 0;
}
