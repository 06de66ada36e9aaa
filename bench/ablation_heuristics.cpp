// Ablation: the paper's future-work direction — heuristics for the
// NP-complete mapping problem scored by this library's throughput
// evaluators. We compare, on random heterogeneous instances:
//   * greedy construction alone,
//   * greedy + local search (the full optimizer),
//   * the best of 50 random valid mappings (the baseline a practitioner
//     without an evaluator would use),
// under the exponential-case objective. The interesting shape: local search
// adds real throughput over greedy, and both dominate random search.
#include "bench_util.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "engine/parallel_search.hpp"
#include "model/random_instance.hpp"

namespace {

using namespace streamflow;

/// Random valid mapping of the given platform (team shapes drawn uniformly).
Mapping random_mapping(const Application& app, const Platform& platform,
                       Prng& prng) {
  const std::size_t n = app.num_stages();
  const std::size_t m = platform.num_processors();
  for (;;) {
    std::vector<std::size_t> procs(m);
    for (std::size_t p = 0; p < m; ++p) procs[p] = p;
    for (std::size_t i = m; i > 1; --i)
      std::swap(procs[i - 1], procs[prng.uniform_index(i)]);
    std::vector<std::vector<std::size_t>> teams(n);
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t remaining_stages = n - i - 1;
      const std::size_t max_take = m - cursor - remaining_stages;
      const std::size_t take = 1 + prng.uniform_index(max_take);
      teams[i].assign(procs.begin() + static_cast<long>(cursor),
                      procs.begin() + static_cast<long>(cursor + take));
      cursor += take;
    }
    try {
      Mapping mapping(make_instance(app, platform), teams);
      if (mapping.num_paths() <= 256) return mapping;
    } catch (const InvalidArgument&) {
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamflow::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const int instances = args.quick ? 4 : 12;

  Table table({"instance", "random best", "greedy", "greedy+LS",
               "LS gain %", "vs random %"});
  RunningStats ls_gain, vs_random;
  Prng prng(0xAB1A);
  for (int inst = 0; inst < instances; ++inst) {
    // A heterogeneous instance: random works/speeds/bandwidths.
    std::vector<double> works(4), files(3);
    for (double& w : works) w = prng.uniform(1.0, 10.0);
    for (double& f : files) f = prng.uniform(0.5, 4.0);
    Application app(works, files);
    std::vector<double> speeds(10);
    for (double& s : speeds) s = prng.uniform(0.5, 3.0);
    Platform platform =
        Platform::fully_connected(speeds, prng.uniform(2.0, 8.0));

    ParallelSearchOptions search;
    search.search.objective = MappingObjective::kExponential;
    search.search.restarts = args.quick ? 2 : 4;
    search.search.seed = 1000 + static_cast<std::uint64_t>(inst);
    search.threads = 1;
    const MappingSearchOptions& options = search.search;
    const ParallelSearchResult result =
        parallel_optimize_mapping(make_instance(app, platform), search);

    double random_best = 0.0;
    for (int r = 0; r < 50; ++r) {
      const Mapping candidate = random_mapping(app, platform, prng);
      random_best = std::max(
          random_best, evaluate_mapping(candidate, options));
    }

    const double gain =
        100.0 * (result.throughput / result.greedy_throughput - 1.0);
    const double vs_rand = 100.0 * (result.throughput / random_best - 1.0);
    ls_gain.add(gain);
    vs_random.add(vs_rand);
    table.add_row({static_cast<std::int64_t>(inst), random_best,
                   result.greedy_throughput, result.throughput, gain,
                   vs_rand});
  }
  emit(table, "Ablation — mapping heuristics scored by Theorem 3/4", args);

  shape_check(ls_gain.mean() >= 0.0,
              "local search never hurts greedy (mean gain " +
                  std::to_string(ls_gain.mean()) + "%)");
  shape_check(vs_random.mean() > 0.0,
              "the optimizer beats 50 random mappings on average by " +
                  std::to_string(vs_random.mean()) + "%");
  return 0;
}
