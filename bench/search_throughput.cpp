// Mapping-search evaluation throughput: shared AnalysisContext versus the
// throwaway-context baseline, the parallel portfolio, and the bound screens.
//
// Part 1 models what local search actually does: repeated sweeps over the
// migrate/swap neighbourhood of a base mapping (every sweep re-probes
// nearly the same candidates). The baseline path evaluates each candidate
// with the free exponential_throughput() (a fresh context every time, so
// every communication pattern is re-solved on its Young-diagram CTMC); the
// cached path evaluates the same candidates through one AnalysisContext via
// evaluate_move (untouched columns reused from the base, touched patterns
// answered from the cache after the first sweep). Scores are checked
// bit-identical between the two paths, and the shape check asserts the
// >= 3x evaluations/sec speedup the caching layer exists for.
//
// Part 2 is the portfolio threads sweep: the deterministic parallel search
// (engine/parallel_search.hpp) runs the same restart portfolio at 1, 2, 4,
// and 8 worker threads, checks every result bit-identical, and reports the
// wall-clock speedup. The >= 2x-at-4-threads shape assertion only arms when
// the host actually has 4 hardware threads (on smaller machines the sweep
// still runs and the verdict degrades to SHAPE-INFO).
//
// Part 3 is the bound-screen pruning sweep plus the metaheuristic kind
// portfolio. The pruning sweep runs the same search on one thread on the
// large-platform instances under BoundPolicy::kNone / kMct / kMctMaxplus,
// asserts the screened results bit-identical to the unscreened search
// (scores, mappings, evaluation counts, and the probe-accounting identity),
// and SHAPE-checks that on the largest platform the screens either prune
// >= 50% of the move probes or deliver >= 2x probes/sec. The kind
// portfolio runs greedy vs simulated-annealing vs tabu islands at a
// comparable move budget, asserts each metaheuristic bit-identical across
// 1/2/4/8 worker threads, and SHAPE-checks the islands never fall below
// the greedy portfolio's score.
//
//   ./build/bench_search_throughput [--csv] [--quick] [--json PATH]
#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "core/analysis_context.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "engine/parallel_search.hpp"

namespace {

using namespace streamflow;

/// 5-stage pipeline with replications (2, 3, 4, 3, 2) on 14 processors and
/// a fully heterogeneous network: every pattern solve is a real CTMC solve
/// (states up to S(3,4) = 60), like the hard instances of Section 7.
Mapping default_instance() {
  Application app({2.0, 9.0, 8.0, 4.5, 1.5}, {3.0, 2.0, 1.0, 0.5});
  std::vector<double> speeds{2.5, 1.0, 1.4, 1.8, 0.7, 2.2, 1.3,
                             0.9, 1.6, 1.1, 2.0, 0.8, 1.7, 1.2};
  Platform platform = Platform::fully_connected(speeds, 4.0);
  Prng prng(12345);
  for (std::size_t p = 0; p < speeds.size(); ++p) {
    for (std::size_t q = p + 1; q < speeds.size(); ++q) {
      platform.set_bandwidth(p, q, 2.0 + 4.0 * prng.uniform01());
    }
  }
  return Mapping(make_instance(app, platform),
                 {{0, 1}, {2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11}, {12, 13}});
}

/// 4-stage pipeline mapped on 9 of `m` processors: the platform (speeds and
/// the full heterogeneous bandwidth matrix) scales with m, the mapped teams
/// and therefore the pattern-solve work do not.
Mapping large_instance(std::size_t m) {
  Application app({2.0, 6.0, 4.0, 1.5}, {1.0, 2.0, 0.5});
  Prng prng(777);
  std::vector<double> speeds(m);
  for (double& s : speeds) s = 0.5 + 2.0 * prng.uniform01();
  Platform platform(speeds);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = p + 1; q < m; ++q) {
      platform.set_bandwidth(p, q, 2.0 + 4.0 * prng.uniform01());
    }
  }
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {{0, 1}, {2, 3, 4}, {5, 6}, {7, 8}});
}

std::vector<MappingMove> neighbourhood(const Mapping& base) {
  const std::size_t n = base.num_stages();
  const std::size_t m = base.num_processors();
  std::vector<MappingMove> moves;
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t i = 0; i <= n; ++i) {
      const std::size_t target = i == n ? Mapping::kUnused : i;
      if (target == base.stage_of(p)) continue;
      moves.push_back(MappingMove::migrate(p, target));
    }
  }
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = p + 1; q < m; ++q) {
      if (base.stage_of(p) == base.stage_of(q)) continue;
      moves.push_back(MappingMove::swap(p, q));
    }
  }
  return moves;
}

/// Baseline: rebuild the candidate and solve every pattern from scratch.
std::optional<double> evaluate_throwaway(const Mapping& base,
                                         const MappingMove& move,
                                         const MappingSearchOptions& options) {
  std::vector<std::size_t> assignment(base.num_processors());
  for (std::size_t p = 0; p < base.num_processors(); ++p)
    assignment[p] = base.stage_of(p);
  if (move.kind == MappingMove::Kind::kMigrate) {
    assignment[move.p] = move.target;
  } else {
    std::swap(assignment[move.p], assignment[move.q]);
  }
  std::vector<std::vector<std::size_t>> teams(base.num_stages());
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    if (assignment[p] != Mapping::kUnused) teams[assignment[p]].push_back(p);
  }
  for (const auto& team : teams) {
    if (team.empty()) return std::nullopt;
  }
  try {
    Mapping mapping(make_instance(base.application(), base.platform()), teams);
    if (mapping.num_paths() > options.max_paths) return std::nullopt;
    return exponential_throughput(mapping, options.model).throughput;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

std::size_t count_mismatches(const std::vector<std::optional<double>>& a,
                             const std::vector<std::optional<double>>& b) {
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].has_value() != b[k].has_value() ||
        (a[k] && *a[k] != *b[k])) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  using streamflow::bench::BenchArgs;
  using streamflow::JsonWriter;
  using streamflow::bench::Stopwatch;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  // The cached path amortizes its first-sweep solves over the later sweeps,
  // so too few sweeps understate the steady-state speedup local search sees.
  const std::size_t sweeps = args.quick ? 3 : 4;

  const Mapping base = default_instance();
  const std::vector<MappingMove> moves = neighbourhood(base);
  MappingSearchOptions options;  // exponential objective, Overlap model

  // Throwaway-context baseline (the pre-context analysis path).
  std::vector<std::optional<double>> baseline_scores;
  baseline_scores.reserve(sweeps * moves.size());
  Stopwatch baseline_watch;
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    for (const MappingMove& move : moves) {
      baseline_scores.push_back(evaluate_throwaway(base, move, options));
    }
  }
  const double baseline_seconds = baseline_watch.seconds();

  // Shared-context incremental path.
  AnalysisContext context;
  context.set_base(base, options);
  std::vector<std::optional<double>> cached_scores;
  cached_scores.reserve(sweeps * moves.size());
  Stopwatch cached_watch;
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    for (const MappingMove& move : moves) {
      cached_scores.push_back(context.evaluate_move(move));
    }
  }
  const double cached_seconds = cached_watch.seconds();

  const std::size_t mismatches = count_mismatches(baseline_scores, cached_scores);
  std::size_t feasible = 0;
  for (const auto& score : baseline_scores) {
    if (score) ++feasible;
  }

  const double evaluations = static_cast<double>(sweeps * moves.size());
  const double baseline_rate = evaluations / baseline_seconds;
  const double cached_rate = evaluations / cached_seconds;
  const double speedup = cached_rate / baseline_rate;

  streamflow::Table table({"path", "evaluations", "seconds", "evals/sec"});
  table.set_precision(4);
  table.add_row({std::string("throwaway context"),
                 static_cast<std::int64_t>(evaluations), baseline_seconds,
                 baseline_rate});
  table.add_row({std::string("shared AnalysisContext"),
                 static_cast<std::int64_t>(evaluations), cached_seconds,
                 cached_rate});
  streamflow::bench::emit(table,
                          "mapping-candidate evaluation throughput (" +
                              std::to_string(sweeps) + " sweeps x " +
                              std::to_string(moves.size()) + " moves, " +
                              std::to_string(feasible) + " feasible)",
                          args);

  const streamflow::AnalysisCacheStats& stats = context.stats();
  std::cout << "\ncache: " << stats.pattern_misses << " pattern solves, "
            << stats.pattern_hits << " hits, " << stats.columns_reused
            << " columns reused / " << stats.columns_recomputed
            << " recomputed\n";
  std::cout << "speedup: " << speedup << "x\n\n";

  // ---- Part 2: deterministic portfolio threads sweep ----------------------
  // One restart portfolio on the hard heterogeneous instance, swept over
  // worker-thread counts. Scores, trajectories, and counters must be
  // bit-identical at every T; wall clock is what changes.
  ParallelSearchOptions portfolio;
  portfolio.search = options;
  portfolio.search.restarts = args.quick ? 8 : 16;
  portfolio.search.seed = 99;

  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  streamflow::Table sweep_table(
      {"threads", "seconds", "speedup", "throughput", "evaluations"});
  sweep_table.set_precision(4);
  JsonWriter sweep_json;
  std::optional<streamflow::ParallelSearchResult> sweep_reference;
  double sweep_serial_seconds = 0.0;
  double sweep_speedup_at4 = 0.0;
  std::size_t sweep_mismatches = 0;
  for (const std::size_t t : thread_counts) {
    portfolio.threads = t;
    Stopwatch watch;
    streamflow::ParallelSearchResult result =
        streamflow::parallel_optimize_mapping(base.instance(), portfolio);
    const double seconds = watch.seconds();
    if (t == 1) sweep_serial_seconds = seconds;
    const double sweep_speedup = sweep_serial_seconds / seconds;
    if (t == 4) sweep_speedup_at4 = sweep_speedup;
    // Report THIS run's numbers (not the reference's): if determinism ever
    // regresses, the printed table and the archived JSON show the
    // diverging values alongside the mismatch verdict.
    sweep_table.add_row({static_cast<std::int64_t>(t), seconds, sweep_speedup,
                         result.throughput,
                         static_cast<std::int64_t>(result.evaluations)});
    sweep_json.raw_field(std::string("t").append(std::to_string(t)),
                         JsonWriter()
                             .integer_field("threads", t)
                             .number_field("seconds", seconds)
                             .number_field("speedup", sweep_speedup)
                             .integer_field("restarts", result.restarts)
                             .integer_field("evaluations", result.evaluations)
                             .str());
    if (!sweep_reference) {
      sweep_reference.emplace(std::move(result));
    } else if (result.throughput != sweep_reference->throughput ||
               result.evaluations != sweep_reference->evaluations ||
               result.best_restart != sweep_reference->best_restart ||
               result.pattern_requests != sweep_reference->pattern_requests ||
               result.mapping.to_string() !=
                   sweep_reference->mapping.to_string()) {
      ++sweep_mismatches;
    }
  }
  streamflow::bench::emit(
      sweep_table,
      "portfolio threads sweep (" +
          std::to_string(portfolio.search.restarts) +
          " restarts, bit-identical result required at every T)",
      args);
  std::cout << "\n";

  const unsigned hardware = std::thread::hardware_concurrency();
  const bool sweep_identical = sweep_mismatches == 0;
  const bool sweep_hardware_ok = hardware >= 4;
  const bool sweep_speedup_ok = sweep_speedup_at4 >= 2.0;

  const bool default_identical = mismatches == 0;
  const bool default_speedup_ok = speedup >= 3.0;
  streamflow::bench::shape_check(
      default_identical,
      "cached/incremental scores bit-identical to the throwaway path (" +
          std::to_string(mismatches) + " mismatches)");
  streamflow::bench::shape_check(
      default_speedup_ok,
      "shared context >= 3x evaluations/sec vs throwaway contexts (got " +
          std::to_string(speedup) + "x)");
  streamflow::bench::shape_check(
      sweep_identical,
      "portfolio results bit-identical across 1/2/4/8 worker threads (" +
          std::to_string(sweep_mismatches) + " mismatching sweeps)");
  if (sweep_hardware_ok) {
    streamflow::bench::shape_check(
        sweep_speedup_ok,
        "parallel portfolio >= 2x wall-clock speedup at 4 threads (got " +
            std::to_string(sweep_speedup_at4) + "x on " +
            std::to_string(hardware) + " hardware threads)");
  } else {
    streamflow::bench::shape_info(
        "threads-sweep speedup not asserted: only " +
        std::to_string(hardware) +
        " hardware thread(s) detected (got " +
        std::to_string(sweep_speedup_at4) + "x at 4 workers)");
  }

  // ---- Part 3a: admissible bound-screen pruning sweep ----------------------
  // The same one-thread search, unscreened vs screened: the screens must change
  // nothing but the work done.
  const std::vector<std::size_t> platform_sizes =
      args.quick ? std::vector<std::size_t>{160}
                 : std::vector<std::size_t>{160, 320, 480};
  MappingSearchOptions prune_options = options;
  prune_options.restarts = 1;
  prune_options.seed = 7;

  streamflow::Table prune_table({"processors", "policy", "seconds",
                                 "probes/sec", "prune rate", "speedup"});
  prune_table.set_precision(4);
  JsonWriter prune_json;
  std::size_t prune_mismatches = 0;
  std::size_t prune_accounting_errors = 0;
  double largest_prune_rate = 0.0;
  double largest_prune_speedup = 0.0;
  for (const std::size_t m : platform_sizes) {
    const streamflow::InstancePtr big = large_instance(m).instance();
    std::optional<streamflow::ParallelSearchResult> reference;
    double reference_seconds = 0.0;
    JsonWriter size_json;
    for (const streamflow::BoundPolicy policy :
         {streamflow::BoundPolicy::kNone, streamflow::BoundPolicy::kMct,
          streamflow::BoundPolicy::kMctMaxplus}) {
      ParallelSearchOptions screened;
      screened.search = prune_options;
      screened.search.bounds = policy;
      screened.threads = 1;
      Stopwatch watch;
      const streamflow::ParallelSearchResult result =
          streamflow::parallel_optimize_mapping(big, screened);
      const double seconds = watch.seconds();
      const std::size_t pruned =
          result.moves_pruned_mct + result.moves_pruned_maxplus;
      const std::size_t probes = pruned + result.moves_solved;
      const double prune_rate =
          probes == 0 ? 0.0
                      : static_cast<double>(pruned) / static_cast<double>(probes);
      const char* policy_name =
          policy == streamflow::BoundPolicy::kNone  ? "none"
          : policy == streamflow::BoundPolicy::kMct ? "mct"
                                                    : "mct+maxplus";
      if (!reference) {
        reference.emplace(result);
        reference_seconds = seconds;
      } else {
        if (result.throughput != reference->throughput ||
            result.evaluations != reference->evaluations ||
            result.mapping.to_string() != reference->mapping.to_string()) {
          ++prune_mismatches;
        }
        // Exact accounting: every probe the unscreened search solved is,
        // under a screen, either solved or pruned — never lost.
        if (probes != reference->moves_solved) ++prune_accounting_errors;
      }
      const double speedup = reference_seconds / seconds;
      if (m == platform_sizes.back() &&
          policy != streamflow::BoundPolicy::kNone) {
        largest_prune_rate = std::max(largest_prune_rate, prune_rate);
        largest_prune_speedup = std::max(largest_prune_speedup, speedup);
      }
      prune_table.add_row({static_cast<std::int64_t>(m),
                           std::string(policy_name), seconds,
                           static_cast<double>(probes) / seconds, prune_rate,
                           speedup});
      size_json.raw_field(
          policy_name,
          JsonWriter()
              .number_field("seconds", seconds)
              .integer_field("probes", probes)
              .number_field("probes_per_sec",
                            static_cast<double>(probes) / seconds)
              .integer_field("pruned_mct", result.moves_pruned_mct)
              .integer_field("pruned_maxplus", result.moves_pruned_maxplus)
              .integer_field("moves_solved", result.moves_solved)
              .number_field("prune_rate", prune_rate)
              .number_field("speedup", speedup)
              .number_field("throughput", result.throughput)
              .str());
    }
    prune_json.raw_field(std::string("m").append(std::to_string(m)),
                         size_json.str());
  }
  streamflow::bench::emit(
      prune_table,
      "bound-screened search vs unscreened (bit-identical results required)",
      args);
  std::cout << "\n";

  // ---- Part 3b: metaheuristic kind portfolio -------------------------------
  // greedy restarts vs SA/tabu islands at a comparable move budget, each
  // kind bit-identical across worker-thread counts.
  ParallelSearchOptions kind_portfolio;
  kind_portfolio.search = options;
  kind_portfolio.search.seed = 1234;
  kind_portfolio.islands = 4;
  kind_portfolio.sync_rounds = args.quick ? 4 : 8;

  struct KindOutcome {
    std::string name;
    double throughput = 0.0;
    std::size_t evaluations = 0;
    std::size_t mismatches = 0;
  };
  std::vector<KindOutcome> kinds;
  streamflow::Table kind_table(
      {"kind", "throughput", "evaluations", "thread mismatches"});
  kind_table.set_precision(6);
  JsonWriter kind_json;
  for (const streamflow::RestartKind kind :
       {streamflow::RestartKind::kGreedyLocal,
        streamflow::RestartKind::kAnnealing, streamflow::RestartKind::kTabu}) {
    ParallelSearchOptions run = kind_portfolio;
    run.search.kind = kind;
    // Budget parity across very different step costs: an SA step probes one
    // move while a tabu step probes the whole neighborhood (~m moves), so
    // the per-leg step counts are scaled to land all three kinds near the
    // same probe budget (the evaluations column reports the actuals).
    run.search.restarts = args.quick ? 4 : 8;
    if (kind == streamflow::RestartKind::kAnnealing) {
      run.search.moves_per_leg = 1024;
    } else if (kind == streamflow::RestartKind::kTabu) {
      run.search.moves_per_leg = 8;
    }
    KindOutcome outcome;
    outcome.name = kind == streamflow::RestartKind::kGreedyLocal ? "greedy"
                   : kind == streamflow::RestartKind::kAnnealing ? "anneal"
                                                                 : "tabu";
    std::optional<streamflow::ParallelSearchResult> reference;
    for (const std::size_t t : thread_counts) {
      run.threads = t;
      streamflow::ParallelSearchResult result =
          streamflow::parallel_optimize_mapping(base.instance(), run);
      if (!reference) {
        reference.emplace(std::move(result));
      } else if (result.throughput != reference->throughput ||
                 result.evaluations != reference->evaluations ||
                 result.mapping.to_string() !=
                     reference->mapping.to_string()) {
        ++outcome.mismatches;
      }
    }
    outcome.throughput = reference->throughput;
    outcome.evaluations = reference->evaluations;
    kind_table.add_row({outcome.name, outcome.throughput,
                        static_cast<std::int64_t>(outcome.evaluations),
                        static_cast<std::int64_t>(outcome.mismatches)});
    kind_json.raw_field(
        outcome.name,
        JsonWriter()
            .number_field("throughput", outcome.throughput)
            .integer_field("evaluations", outcome.evaluations)
            .integer_field("thread_mismatches", outcome.mismatches)
            .str());
    kinds.push_back(std::move(outcome));
  }
  streamflow::bench::emit(
      kind_table,
      "search kinds at comparable move budgets (each kind bit-identical "
      "across 1/2/4/8 threads)",
      args);
  std::cout << "\n";

  const bool prune_identical =
      prune_mismatches == 0 && prune_accounting_errors == 0;
  const bool prune_effective =
      largest_prune_rate >= 0.5 || largest_prune_speedup >= 2.0;
  const bool kinds_identical = kinds[0].mismatches == 0 &&
                               kinds[1].mismatches == 0 &&
                               kinds[2].mismatches == 0;
  const bool kinds_competitive = kinds[1].throughput >= kinds[0].throughput &&
                                 kinds[2].throughput >= kinds[0].throughput;
  streamflow::bench::shape_check(
      prune_identical,
      "bound-screened search bit-identical to unscreened with exact probe "
      "accounting (" +
          std::to_string(prune_mismatches) + " result mismatches, " +
          std::to_string(prune_accounting_errors) + " accounting errors)");
  streamflow::bench::shape_check(
      prune_effective,
      "screens prune >= 50% of move probes or deliver >= 2x probes/sec on "
      "the largest platform (got " +
          std::to_string(largest_prune_rate * 100.0) + "% pruned, " +
          std::to_string(largest_prune_speedup) + "x)");
  streamflow::bench::shape_check(
      kinds_identical,
      "each search kind bit-identical across 1/2/4/8 worker threads");
  streamflow::bench::shape_check(
      kinds_competitive,
      "SA and tabu islands match or beat the greedy portfolio (greedy " +
          std::to_string(kinds[0].throughput) + ", anneal " +
          std::to_string(kinds[1].throughput) + ", tabu " +
          std::to_string(kinds[2].throughput) + ")");

  JsonWriter default_json;
  default_json.integer_field("sweeps", sweeps)
      .integer_field("moves", moves.size())
      .integer_field("feasible", feasible)
      .number_field("throwaway_evals_per_sec", baseline_rate)
      .number_field("cached_evals_per_sec", cached_rate)
      .number_field("speedup", speedup)
      .integer_field("mismatches", mismatches)
      .integer_field("pattern_solves", stats.pattern_misses)
      .integer_field("pattern_hits", stats.pattern_hits)
      .integer_field("columns_reused", stats.columns_reused)
      .integer_field("columns_recomputed", stats.columns_recomputed);
  sweep_json.integer_field("hardware_threads", hardware)
      .number_field("speedup_at_4_threads", sweep_speedup_at4)
      .bool_field("speedup_asserted", sweep_hardware_ok);
  JsonWriter pruning_json;
  pruning_json.raw_field("sweep", prune_json.str())
      .number_field("largest_prune_rate", largest_prune_rate)
      .number_field("largest_speedup", largest_prune_speedup)
      .bool_field("identical", prune_identical)
      .raw_field("kinds", kind_json.str())
      .bool_field("kinds_identical", kinds_identical)
      .bool_field("kinds_competitive", kinds_competitive);
  JsonWriter summary;
  summary.string_field("bench", "search_throughput")
      .bool_field("quick", args.quick)
      .raw_field("default_instance", default_json.str())
      .raw_field("threads_sweep", sweep_json.str())
      .raw_field("search_pruning", pruning_json.str())
      .bool_field("shape_ok", default_identical && default_speedup_ok &&
                                  sweep_identical &&
                                  (!sweep_hardware_ok || sweep_speedup_ok) &&
                                  prune_identical && prune_effective &&
                                  kinds_identical && kinds_competitive);
  streamflow::bench::write_json(args, summary);
  return 0;
}
