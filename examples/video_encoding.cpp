// Video-encoding pipeline — the paper's motivating workload family
// ("streaming applications like video and audio encoding and decoding").
//
//   capture -> decode -> filter -> encode -> mux
//
// Encoding dominates the per-frame cost, and frames can be encoded
// independently, so `encode` is a *replicated* (dealable) stage. This
// example sweeps the replication degree of the encode stage on a
// heterogeneous cluster and reports, for each degree:
//   * the deterministic throughput (frames/s with constant frame cost),
//   * the exponential throughput (frame cost varies, e.g. scene changes),
//   * the guaranteed N.B.U.E. interval,
// showing where adding encoders stops paying off (the upstream filter stage
// becomes the bottleneck).
//
// Build & run:  ./build/examples/video_encoding
#include <iomanip>
#include <iostream>

#include "core/analyzer.hpp"
#include "sim/pipeline_sim.hpp"

int main() {
  using namespace streamflow;

  // Per-frame costs (Mflop) and inter-stage frame sizes (MB).
  //                 capture  decode  filter  encode  mux
  Application app({0.5, 4.0, 6.0, 30.0, 1.0},
                  {2.0, 8.0, 8.0, 0.5});

  std::cout << "video pipeline: " << app.to_string() << "\n\n";
  std::cout << std::fixed << std::setprecision(3);
  std::cout << " encoders |  det fps |  exp fps | guaranteed NBUE interval | "
               "sim fps (exp)\n";
  std::cout << "----------+----------+----------+--------------------------+--"
               "------------\n";

  double previous = 0.0;
  for (std::size_t encoders = 1; encoders <= 8; ++encoders) {
    // Cluster: 4 fixed nodes for the light stages + `encoders` encode nodes
    // of alternating speeds (a heterogeneous rack: 100 and 140 Mflop/s).
    std::vector<double> speeds{50.0, 60.0, 80.0, 40.0};
    for (std::size_t e = 0; e < encoders; ++e)
      speeds.push_back(e % 2 == 0 ? 100.0 : 140.0);
    Platform platform = Platform::fully_connected(speeds, /*MB/s=*/250.0);

    std::vector<std::size_t> encode_team;
    for (std::size_t e = 0; e < encoders; ++e) encode_team.push_back(4 + e);
    Mapping mapping(make_instance(app, platform),
                    {{0}, {1}, {2}, encode_team, {3}});

    const auto det =
        deterministic_throughput(mapping, ExecutionModel::kOverlap);
    const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
    const NbueBounds bounds =
        nbue_throughput_bounds(mapping, ExecutionModel::kOverlap);

    PipelineSimOptions options;
    options.data_sets = 40'000;
    const auto sim = simulate_pipeline(
        mapping, ExecutionModel::kOverlap,
        StochasticTiming::exponential(mapping), options);

    std::cout << "    " << std::setw(2) << encoders << "    |  "
              << std::setw(6) << det.throughput << "  |  " << std::setw(6)
              << exp.throughput << "  |   [" << std::setw(6) << bounds.lower
              << ", " << std::setw(6) << bounds.upper << "]      |  "
              << sim.throughput;
    if (exp.throughput < previous * 1.02 && encoders > 1) {
      std::cout << "   <- diminishing returns";
    }
    previous = exp.throughput;
    std::cout << "\n";
  }

  std::cout << "\nThe filter stage (80 Mflop/s node, 6 Mflop/frame -> 13.3 "
               "fps ceiling)\ncaps the pipeline once enough encoders are "
               "deployed; the analyzer's\ncomponent diagnostics point at it "
               "directly:\n\n";

  // Show diagnostics at 6 encoders.
  std::vector<double> speeds{50.0, 60.0, 80.0, 40.0};
  for (std::size_t e = 0; e < 6; ++e)
    speeds.push_back(e % 2 == 0 ? 100.0 : 140.0);
  Platform platform = Platform::fully_connected(speeds, 250.0);
  Mapping mapping(make_instance(app, platform),
                  {{0}, {1}, {2}, {4, 5, 6, 7, 8, 9}, {3}});
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  for (const auto& c : exp.components) {
    if (c.bottleneck || c.effective == exp.throughput) {
      std::cout << "  " << c.label << ": saturated " << c.inner
                << " fps, effective " << c.effective << " fps"
                << (c.bottleneck ? "  <- gated upstream" : "") << "\n";
    }
  }
  return 0;
}
