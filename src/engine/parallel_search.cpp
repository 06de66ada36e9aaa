#include "engine/parallel_search.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/analysis_context.hpp"
#include "core/pattern_store.hpp"
#include "engine/stream_factory.hpp"
#include "engine/thread_pool.hpp"

namespace streamflow {

namespace {

/// Base stream of one scenario: Prng(seed), advanced `scenario` long jumps
/// (2^192 draws each) when scenario streams are on, so scenario families
/// never overlap.
Prng scenario_base_stream(std::uint64_t seed, std::size_t scenario,
                          bool scenario_streams) {
  Prng base(seed);
  if (scenario_streams) {
    for (std::size_t j = 0; j < scenario; ++j) base.long_jump();
  }
  return base;
}

/// Materializes the start assignments of restarts 1..R-1, serially, before
/// any worker runs — this is where thread count is decoupled from the
/// random draws. `base` is consumed in restart order, so restart k's start
/// is a pure function of (seed, k).
std::vector<StageAssignment> materialize_starts(const InstancePtr& instance,
                                                std::size_t restarts,
                                                Prng base) {
  std::vector<StageAssignment> starts;
  if (restarts <= 1) return starts;
  starts.reserve(restarts - 1);
  for (std::size_t k = 1; k < restarts; ++k) {
    starts.push_back(draw_restart_assignment(instance->application,
                                             instance->platform, base));
  }
  return starts;
}

/// Runs restart k of the portfolio through `context`.
RestartResult run_restart(const InstancePtr& instance,
                          const MappingSearchOptions& options, std::size_t k,
                          const std::vector<StageAssignment>& starts,
                          AnalysisContext& context) {
  if (k == 0) return run_greedy_restart(instance, options, context);
  return run_random_restart(instance, starts[k - 1], options, context);
}

/// The serial in-order reduction: strict improvement in restart order, so
/// ties always resolve to the lowest restart index.
std::size_t reduce_best(const std::vector<RestartResult>& rows) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < rows.size(); ++k) {
    if (rows[k].feasible && rows[k].score > rows[best].score) best = k;
  }
  return best;
}

/// Adds the five work counters of `from` into `into` (a trace row or the
/// portfolio totals): the one place that lists them.
template <typename Counters>
void add_counters(Counters& into, const RestartResult& from) {
  into.evaluations += from.evaluations;
  into.pattern_requests += from.pattern_requests;
  into.moves_pruned_mct += from.moves_pruned_mct;
  into.moves_pruned_maxplus += from.moves_pruned_maxplus;
  into.moves_solved += from.moves_solved;
}

ParallelSearchResult assemble(const InstancePtr& instance,
                              const MappingSearchOptions& search,
                              std::vector<RestartResult> rows,
                              std::size_t threads_used) {
  const std::size_t best = reduce_best(rows);
  auto mapping =
      realize_assignment(instance, rows[best].assignment, search.max_paths);
  if (!mapping) throw InvalidArgument("no restart reached a feasible mapping");

  ParallelSearchResult result{std::move(*mapping),
                              rows[best].score,
                              rows[0].start_score,
                              best,
                              rows.size(),
                              threads_used,
                              0,
                              0,
                              0,
                              0,
                              0,
                              std::move(rows)};
  for (const RestartResult& row : result.trace) add_counters(result, row);
  return result;
}

/// One context per pool worker, each attached to the shared store.
std::vector<AnalysisContext> worker_contexts(std::size_t workers,
                                             PatternStore* store) {
  std::vector<AnalysisContext> contexts(workers);
  for (AnalysisContext& context : contexts) context.set_pattern_store(store);
  return contexts;
}

/// Folds one leg's deltas into its island's trace row: counters accumulate,
/// feasible/score/assignment track the island's best, and start_score pins
/// the score the island's FIRST feasible leg entered with.
void merge_leg(RestartResult& row, const RestartResult& leg) {
  if (leg.feasible) {
    if (!row.feasible) row.start_score = leg.start_score;
    row.feasible = true;
    row.score = leg.score;
    row.assignment = leg.assignment;
  }
  add_counters(row, leg);
}

/// The serial synchronization point between rounds: in island order, island
/// k adopts the best of island (k-1 mod I) as its incumbent iff it strictly
/// beats k's own best. Reads bests, writes incumbents only, so the order of
/// the loop body is immaterial (snapshot semantics for free).
void exchange_incumbents(std::vector<IslandState>& islands) {
  const std::size_t count = islands.size();
  for (std::size_t k = 0; k < count; ++k) {
    const IslandState& neighbor = islands[(k + count - 1) % count];
    if (neighbor.best_score > islands[k].best_score) {
      islands[k].current = neighbor.best;
      islands[k].current_score = neighbor.best_score;
      islands[k].feasible = true;
    }
  }
}

/// The SA/tabu island portfolio (see the ParallelSearchOptions island
/// contract). Rounds alternate a parallel leg phase (one for_each over the
/// islands on one pool kept for the whole run; every leg reads only its
/// island, its substream, and a worker-private context) with the serial
/// incumbent exchange, so the result is a pure function of (instance,
/// search, islands, sync_rounds).
ParallelSearchResult run_island_portfolio(const InstancePtr& instance,
                                          const ParallelSearchOptions& options) {
  const MappingSearchOptions& search = options.search;
  SF_REQUIRE(options.islands >= 1, "island portfolio requires islands >= 1");
  SF_REQUIRE(options.sync_rounds >= 1,
             "island portfolio requires sync_rounds >= 1");
  const std::size_t islands = options.islands;

  // Island k's private stream is substream k, materialized serially (the
  // factory keeps frontier state and is not thread-safe).
  StreamFactory factory(search.seed);
  std::vector<Prng> prngs;
  prngs.reserve(islands);
  for (std::size_t k = 0; k < islands; ++k) prngs.push_back(factory.stream(k));

  std::vector<IslandState> isl(islands);
  std::vector<RestartResult> rows(islands);
  ThreadPool pool(std::min(resolve_threads(options.threads), islands));
  // Warm across rounds; the calling thread is worker 0 and also runs the
  // greedy seeding and the final polish through contexts[0].
  std::vector<AnalysisContext> contexts =
      worker_contexts(pool.size(), options.pattern_store);

  // Island 0 is seeded by the full greedy restart: the portfolio can never
  // end below the greedy baseline, and its construction score doubles as
  // greedy_throughput (trace row 0's start_score, like the greedy
  // portfolio's restart 0).
  rows[0] = run_greedy_restart(instance, search, contexts[0]);
  isl[0].feasible = rows[0].feasible;
  isl[0].current = rows[0].assignment;
  isl[0].current_score = rows[0].score;
  isl[0].best = rows[0].assignment;
  isl[0].best_score = rows[0].score;

  // Islands k >= 1 start from a random assignment drawn from their own
  // substream (the draw happens regardless of feasibility, so the stream
  // position stays a pure function of (seed, k)); an infeasible start
  // leaves the island idle until an exchange hands it an incumbent.
  for (std::size_t k = 1; k < islands; ++k) {
    StageAssignment start = draw_restart_assignment(
        instance->application, instance->platform, prngs[k]);
    if (realize_assignment(instance, start, search.max_paths)) {
      isl[k].feasible = true;
      isl[k].current = std::move(start);
    }
  }

  std::vector<RestartResult> legs(islands);
  for (std::size_t round = 0; round < options.sync_rounds; ++round) {
    pool.for_each(islands, [&](std::size_t worker, std::size_t k) {
      legs[k] = run_island_leg(instance, isl[k], round, search, prngs[k],
                               contexts[worker]);
    });
    for (std::size_t k = 0; k < islands; ++k) merge_leg(rows[k], legs[k]);
    exchange_incumbents(isl);
  }

  // Final polish: one local-search pass from the winning island's best (the
  // metaheuristics accept worsening steps, so their best may sit next to an
  // uncollected improvement). Deltas merge into the winner's trace row;
  // local search only adopts strict improvements, so the polished score
  // never drops below the island best.
  const std::size_t winner = reduce_best(rows);
  if (rows[winner].feasible) {
    RestartResult polish = run_random_restart(instance, rows[winner].assignment,
                                              search, contexts[0]);
    SF_ASSERT(polish.feasible, "winning island best failed to realize");
    rows[winner].score = polish.score;
    rows[winner].assignment = polish.assignment;
    add_counters(rows[winner], polish);
  }
  return assemble(instance, search, std::move(rows), pool.size());
}

}  // namespace

ParallelSearchResult parallel_optimize_mapping(
    const InstancePtr& instance, const ParallelSearchOptions& options) {
  validate_mapping_search(instance, options.search);
  if (options.search.kind != RestartKind::kGreedyLocal) {
    return run_island_portfolio(instance, options);
  }
  const std::size_t restarts = std::max<std::size_t>(options.search.restarts, 1);
  const std::vector<StageAssignment> starts =
      materialize_starts(instance, restarts, Prng(options.search.seed));
  ThreadPool pool(std::min(resolve_threads(options.threads), restarts));
  // Each worker keeps one private context warm across the restarts it
  // claims; restarts are cache-state independent, so which worker runs
  // which restart never reaches a result.
  std::vector<AnalysisContext> contexts =
      worker_contexts(pool.size(), options.pattern_store);
  std::vector<RestartResult> rows(restarts);
  pool.for_each(restarts, [&](std::size_t worker, std::size_t k) {
    rows[k] =
        run_restart(instance, options.search, k, starts, contexts[worker]);
  });
  return assemble(instance, options.search, std::move(rows), pool.size());
}

std::vector<ParallelSearchResult> parallel_optimize_batch(
    const std::vector<InstancePtr>& instances,
    const ParallelSearchOptions& options) {
  SF_REQUIRE(!instances.empty(), "batch search over an empty scenario list");
  SF_REQUIRE(options.search.kind == RestartKind::kGreedyLocal,
             "the batch axis composes with the greedy restart portfolio; "
             "run island metaheuristics per instance through "
             "parallel_optimize_mapping");
  // Validate every scenario up front, in order, on the caller's thread:
  // option errors are deterministic and name the first offending scenario.
  for (const InstancePtr& instance : instances) {
    validate_mapping_search(instance, options.search);
  }
  const std::size_t restarts = std::max<std::size_t>(options.search.restarts, 1);

  ThreadPool pool(std::min(resolve_threads(options.threads), instances.size()));
  // Workers keep their context warm across the scenarios they claim.
  std::vector<AnalysisContext> contexts =
      worker_contexts(pool.size(), options.pattern_store);
  // Scenario j runs its whole portfolio serially inside one worker and
  // lands in slot j, whichever worker ran it.
  std::vector<std::optional<ParallelSearchResult>> slots(instances.size());
  pool.for_each(instances.size(), [&](std::size_t worker, std::size_t j) {
    const std::vector<StageAssignment> starts = materialize_starts(
        instances[j], restarts,
        scenario_base_stream(options.search.seed, j, options.scenario_streams));
    std::vector<RestartResult> rows;
    rows.reserve(restarts);
    for (std::size_t k = 0; k < restarts; ++k) {
      rows.push_back(run_restart(instances[j], options.search, k, starts,
                                 contexts[worker]));
    }
    // Each scenario runs inside one worker, so its own thread count is 1.
    slots[j].emplace(
        assemble(instances[j], options.search, std::move(rows), 1));
  });
  std::vector<ParallelSearchResult> results;
  results.reserve(instances.size());
  for (std::optional<ParallelSearchResult>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace streamflow
