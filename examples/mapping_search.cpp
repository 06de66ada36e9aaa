// Mapping search — the paper's future-work direction made concrete.
//
// Given an application and a heterogeneous platform, find a high-throughput
// one-to-many mapping using the throughput evaluators as the objective.
// The example contrasts the deterministic and exponential objectives: a
// mapping tuned for constant times can overcommit replication patterns that
// the exponential analysis reveals to be fragile (the uv/(u+v-1) penalty),
// so optimizing the exponential objective yields deployments that are
// robust to timing variability.
//
// Both searches run on the calling thread (threads = 1) through a memoizing
// analysis context, so every communication-pattern CTMC solve is computed
// once per search and local-search neighbours are evaluated incrementally.
//
// The last sections fan a larger restart portfolio out over every core
// (engine/parallel_search.hpp) and verify the determinism contract live
// (the parallel result is bit-identical to the same search on one thread),
// re-run the
// search under the admissible bound screens (BoundPolicy::kMct /
// kMctMaxplus) to show the screens skip most exact solves without changing
// a single bit of the result, and finish with the simulated-annealing and
// tabu island portfolios — deterministic metaheuristics that never fall
// below the greedy baseline.
//
// Build & run:  ./build/examples/mapping_search
#include <iomanip>
#include <iostream>

#include "common/prng.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "engine/parallel_search.hpp"
#include "sim/pipeline_sim.hpp"

int main() {
  using namespace streamflow;

  // A 4-stage analytics pipeline on a 12-node heterogeneous cluster with
  // per-link bandwidths (a heterogeneous network: every multi-link pattern
  // needs a Young-diagram CTMC solve, which the context caches).
  Application app({2.0, 9.0, 5.0, 1.5}, {3.0, 2.0, 0.5});
  std::vector<double> speeds{2.5, 1.0, 1.0, 1.8, 0.7, 2.2,
                             1.3, 0.9, 1.6, 1.1, 2.0, 0.8};
  Platform platform = Platform::fully_connected(speeds, 4.0);
  Prng link_prng(2024);
  for (std::size_t p = 0; p < speeds.size(); ++p) {
    for (std::size_t q = p + 1; q < speeds.size(); ++q) {
      platform.set_bandwidth(p, q, 3.0 + 2.0 * link_prng.uniform01());
    }
  }

  std::cout << std::fixed << std::setprecision(4);
  std::cout << "application: " << app.to_string() << "\n";
  std::cout << "platform   : " << platform.to_string() << "\n\n";

  // One shared immutable instance: both searches (thousands of candidate
  // mappings) reference it without ever copying the bandwidth matrix.
  const InstancePtr instance = make_instance(app, platform);
  for (const MappingObjective objective :
       {MappingObjective::kDeterministic, MappingObjective::kExponential}) {
    ParallelSearchOptions options;
    options.search.objective = objective;
    options.search.restarts = 6;
    options.search.seed = 7;
    options.threads = 1;
    const ParallelSearchResult result =
        parallel_optimize_mapping(instance, options);

    const double det =
        deterministic_throughput(result.mapping, ExecutionModel::kOverlap)
            .throughput;
    const double exp =
        exponential_throughput(result.mapping, ExecutionModel::kOverlap)
            .throughput;
    PipelineSimOptions sim_options;
    sim_options.data_sets = 60'000;
    const auto sim = simulate_pipeline(
        result.mapping, ExecutionModel::kOverlap,
        StochasticTiming::exponential(result.mapping), sim_options);

    std::cout << "objective "
              << (objective == MappingObjective::kDeterministic
                      ? "DETERMINISTIC"
                      : "EXPONENTIAL")
              << ":\n";
    std::cout << "  best mapping : " << result.mapping.to_string() << "\n";
    std::cout << "  evaluations  : " << result.evaluations
              << " (greedy start " << result.greedy_throughput
              << "; " << result.pattern_requests
              << " pattern solves requested)\n";
    std::cout << "  det analysis : " << det << "\n";
    std::cout << "  exp analysis : " << exp << "\n";
    std::cout << "  exp simulated: " << sim.throughput
              << "  (mean latency " << sim.mean_latency << ")\n\n";
  }

  // ---- Parallel portfolio: the same search, every core busy --------------
  // A bigger multistart fanned over the engine thread pool. The serial
  // reduction and the pre-materialized restart starts make the result a
  // pure function of (instance, options): we verify it bitwise against the
  // same search on one thread right here.
  ParallelSearchOptions portfolio;
  portfolio.search.objective = MappingObjective::kExponential;
  portfolio.search.restarts = 12;
  portfolio.search.seed = 7;
  const ParallelSearchResult fanned =
      parallel_optimize_mapping(instance, portfolio);

  ParallelSearchOptions serial_options = portfolio;
  serial_options.threads = 1;
  const ParallelSearchResult serial =
      parallel_optimize_mapping(instance, serial_options);
  const bool identical =
      fanned.throughput == serial.throughput &&
      fanned.evaluations == serial.evaluations &&
      fanned.mapping.to_string() == serial.mapping.to_string();

  std::cout << "parallel portfolio (" << fanned.restarts << " restarts on "
            << fanned.threads_used << " worker thread(s)):\n";
  std::cout << "  best mapping : " << fanned.mapping.to_string() << "\n";
  std::cout << "  throughput   : " << fanned.throughput
            << "  (best found by restart " << fanned.best_restart << ")\n";
  std::cout << "  evaluations  : " << fanned.evaluations << " across "
            << fanned.restarts << " restarts, " << fanned.pattern_requests
            << " pattern solves requested\n";
  std::cout << "  vs 1 thread  : "
            << (identical ? "bit-identical (as promised)"
                          : "MISMATCH — determinism contract violated!")
            << "\n\n";

  // ---- Bound screens: prune the move loop, change nothing ----------------
  // The same one-thread search with the two-tier admissible screens armed. A
  // cheap incremental rate bound (and, on escalation, the max-plus
  // deterministic bound) filters moves that provably cannot beat the
  // incumbent before the exact CTMC solve — the result must stay
  // bit-identical, only the work changes.
  ParallelSearchOptions screened_options = serial_options;
  screened_options.search.bounds = BoundPolicy::kMctMaxplus;
  const ParallelSearchResult screened =
      parallel_optimize_mapping(instance, screened_options);
  const std::size_t pruned =
      screened.moves_pruned_mct + screened.moves_pruned_maxplus;
  const std::size_t probes = pruned + screened.moves_solved;
  const bool screen_identical =
      screened.throughput == serial.throughput &&
      screened.evaluations == serial.evaluations &&
      screened.mapping.to_string() == serial.mapping.to_string();
  std::cout << "bound-screened search (mct + max-plus):\n";
  std::cout << "  move probes  : " << probes << " (" << pruned << " pruned — "
            << screened.moves_pruned_mct << " by the rate bound, "
            << screened.moves_pruned_maxplus << " by max-plus; "
            << screened.moves_solved << " solved exactly)\n";
  std::cout << "  vs unscreened: "
            << (screen_identical ? "bit-identical (screens are admissible)"
                                 : "MISMATCH — inadmissible bound!")
            << "\n\n";

  // ---- Metaheuristic islands: SA and tabu, still deterministic -----------
  // Island 0 is greedy-seeded, islands 1..I-1 start from PRNG substreams;
  // incumbents are exchanged round-robin at serial sync points, so each
  // portfolio is a pure function of (seed, options) for any thread count.
  for (const RestartKind kind : {RestartKind::kAnnealing, RestartKind::kTabu}) {
    ParallelSearchOptions islands = portfolio;
    islands.search.kind = kind;
    islands.islands = 4;
    islands.sync_rounds = 6;
    const ParallelSearchResult island_result =
        parallel_optimize_mapping(instance, islands);
    std::cout << (kind == RestartKind::kAnnealing ? "annealing" : "tabu")
              << " islands (" << islands.islands << " islands x "
              << islands.sync_rounds << " sync rounds):\n";
    std::cout << "  best mapping : " << island_result.mapping.to_string()
              << "\n";
    std::cout << "  throughput   : " << island_result.throughput
              << "  (greedy baseline " << island_result.greedy_throughput
              << ", best island " << island_result.best_restart << ")\n";
  }
  std::cout << "\n";

  std::cout << "Takeaway: score mappings with the exponential objective when "
               "service times vary;\nthe deterministic objective can prefer "
               "coprime replication patterns whose\nthroughput degrades by "
               "up to max(u,v)/(u+v-1) under randomness (Fig 15).\n";
  return 0;
}
