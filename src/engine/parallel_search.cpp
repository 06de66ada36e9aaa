#include "engine/parallel_search.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/prng.hpp"
#include "common/thread_annotations.hpp"
#include "core/analysis_context.hpp"
#include "core/pattern_store.hpp"
#include "engine/stream_factory.hpp"
#include "engine/thread_pool.hpp"

namespace streamflow {

std::size_t ParallelSearchOptions::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

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
/// random draws. `base` is consumed in restart order: exactly the draws the
/// serial optimize_mapping makes.
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
  for (const RestartResult& row : result.trace) {
    result.evaluations += row.evaluations;
    result.pattern_requests += row.pattern_requests;
    result.moves_pruned_mct += row.moves_pruned_mct;
    result.moves_pruned_maxplus += row.moves_pruned_maxplus;
    result.moves_solved += row.moves_solved;
  }
  return result;
}

/// One whole portfolio run serially through a caller-provided context —
/// the per-scenario body of the batch axis, and the threads == 1 path.
std::vector<RestartResult> run_portfolio_serial(
    const InstancePtr& instance, const MappingSearchOptions& search,
    const std::vector<StageAssignment>& starts, AnalysisContext& context) {
  const std::size_t restarts = starts.size() + 1;
  std::vector<RestartResult> rows;
  rows.reserve(restarts);
  for (std::size_t k = 0; k < restarts; ++k) {
    rows.push_back(run_restart(instance, search, k, starts, context));
  }
  return rows;
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
  row.evaluations += leg.evaluations;
  row.pattern_requests += leg.pattern_requests;
  row.moves_pruned_mct += leg.moves_pruned_mct;
  row.moves_pruned_maxplus += leg.moves_pruned_maxplus;
  row.moves_solved += leg.moves_solved;
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

/// Stash of the first failure by the SMALLEST claimed index, so the error a
/// caller sees does not depend on worker timing.
class DeterministicErrorStash {
 public:
  void offer(std::size_t index, std::exception_ptr error) SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (!error_ || index < index_) {
      index_ = index;
      error_ = std::move(error);
    }
  }
  // Callers invoke this after the pool's round barrier, but taking the lock
  // anyway keeps the guarded-access contract unconditional (and costs one
  // uncontended acquisition per round).
  void rethrow_if_any() const SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  mutable Mutex mutex_;
  std::size_t index_ SF_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ SF_GUARDED_BY(mutex_);
};

/// The SA/tabu island portfolio (see the ParallelSearchOptions island
/// contract). Rounds alternate a parallel leg phase (islands claimed
/// dynamically; every leg reads only its island, its substream, and a
/// worker-private context) with the serial incumbent exchange, so the
/// result is a pure function of (instance, search, islands, sync_rounds).
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
  AnalysisContext caller_context;
  caller_context.set_pattern_store(options.pattern_store);

  // Island 0 is seeded by the full greedy restart: the portfolio can never
  // end below the greedy baseline, and its construction score doubles as
  // greedy_throughput (trace row 0's start_score, like the greedy
  // portfolio's restart 0).
  rows[0] = run_greedy_restart(instance, search, caller_context);
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

  const std::size_t threads =
      std::min<std::size_t>(options.resolved_threads(), islands);
  if (threads <= 1) {
    for (std::size_t round = 0; round < options.sync_rounds; ++round) {
      for (std::size_t k = 0; k < islands; ++k) {
        merge_leg(rows[k], run_island_leg(instance, isl[k], round, search,
                                          prngs[k], caller_context));
      }
      exchange_incumbents(isl);
    }
  } else {
    std::vector<AnalysisContext> contexts(threads);  // warm across rounds
    for (AnalysisContext& context : contexts) {
      context.set_pattern_store(options.pattern_store);
    }
    std::vector<RestartResult> legs(islands);
    ThreadPool pool(threads);
    for (std::size_t round = 0; round < options.sync_rounds; ++round) {
      std::atomic<std::size_t> next{0};
      DeterministicErrorStash errors;
      for (std::size_t w = 0; w < threads; ++w) {
        pool.submit([&, w] {
          for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= islands) return;
            try {
              legs[k] = run_island_leg(instance, isl[k], round, search,
                                       prngs[k], contexts[w]);
            } catch (...) {
              errors.offer(k, std::current_exception());
            }
          }
        });
      }
      pool.wait();  // the round barrier
      errors.rethrow_if_any();
      for (std::size_t k = 0; k < islands; ++k) merge_leg(rows[k], legs[k]);
      exchange_incumbents(isl);
    }
  }

  // Final polish: one local-search pass from the winning island's best (the
  // metaheuristics accept worsening steps, so their best may sit next to an
  // uncollected improvement). Deltas merge into the winner's trace row;
  // local search only adopts strict improvements, so the polished score
  // never drops below the island best.
  const std::size_t winner = reduce_best(rows);
  if (rows[winner].feasible) {
    RestartResult polish = run_random_restart(instance, rows[winner].assignment,
                                              search, caller_context);
    SF_ASSERT(polish.feasible, "winning island best failed to realize");
    rows[winner].score = polish.score;
    rows[winner].assignment = polish.assignment;
    rows[winner].evaluations += polish.evaluations;
    rows[winner].pattern_requests += polish.pattern_requests;
    rows[winner].moves_pruned_mct += polish.moves_pruned_mct;
    rows[winner].moves_pruned_maxplus += polish.moves_pruned_maxplus;
    rows[winner].moves_solved += polish.moves_solved;
  }
  return assemble(instance, search, std::move(rows), threads);
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
  const std::size_t threads =
      std::min<std::size_t>(options.resolved_threads(), restarts);

  std::vector<RestartResult> rows(restarts);
  if (threads <= 1) {
    AnalysisContext context;
    context.set_pattern_store(options.pattern_store);
    rows = run_portfolio_serial(instance, options.search, starts, context);
    return assemble(instance, options.search, std::move(rows), 1);
  }

  // Workers claim restart indices dynamically (the claim order is
  // irrelevant: each restart writes only its own row and is cache-state
  // independent) and keep one private AnalysisContext warm across every
  // restart they claim.
  std::atomic<std::size_t> next{0};
  DeterministicErrorStash errors;
  ThreadPool pool(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.submit([&] {
      AnalysisContext context;
      context.set_pattern_store(options.pattern_store);
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= restarts) return;
        try {
          rows[k] = run_restart(instance, options.search, k, starts, context);
        } catch (...) {
          errors.offer(k, std::current_exception());
        }
      }
    });
  }
  pool.wait();
  errors.rethrow_if_any();
  return assemble(instance, options.search, std::move(rows), threads);
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

  auto run_scenario = [&](std::size_t j,
                          AnalysisContext& context) -> ParallelSearchResult {
    const std::vector<StageAssignment> starts = materialize_starts(
        instances[j], restarts,
        scenario_base_stream(options.search.seed, j, options.scenario_streams));
    std::vector<RestartResult> rows =
        run_portfolio_serial(instances[j], options.search, starts, context);
    // Each scenario runs inside one worker, so its own thread count is 1.
    return assemble(instances[j], options.search, std::move(rows), 1);
  };

  const std::size_t threads =
      std::min<std::size_t>(options.resolved_threads(), instances.size());
  std::vector<ParallelSearchResult> results;
  results.reserve(instances.size());

  if (threads <= 1) {
    AnalysisContext context;
    context.set_pattern_store(options.pattern_store);
    for (std::size_t j = 0; j < instances.size(); ++j) {
      results.push_back(run_scenario(j, context));
    }
    return results;
  }

  // Scenario-level fan-out: rows land in per-scenario slots and are
  // returned in scenario order regardless of which worker ran what.
  std::vector<std::optional<ParallelSearchResult>> slots(instances.size());
  std::atomic<std::size_t> next{0};
  DeterministicErrorStash errors;
  ThreadPool pool(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.submit([&] {
      AnalysisContext context;  // warm across the scenarios this worker claims
      context.set_pattern_store(options.pattern_store);
      for (;;) {
        const std::size_t j = next.fetch_add(1);
        if (j >= slots.size()) return;
        try {
          slots[j].emplace(run_scenario(j, context));
        } catch (...) {
          errors.offer(j, std::current_exception());
        }
      }
    });
  }
  pool.wait();
  errors.rethrow_if_any();
  for (std::optional<ParallelSearchResult>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace streamflow
