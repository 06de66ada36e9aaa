// Deterministic mapping search: a portfolio of local-search restarts fanned
// out over the engine thread pool. This is the one search entry point —
// with `threads = 1` it runs every restart on the calling thread.
//
// Restarts are independent: the only state they share is the immutable
// problem instance, and the only coupling is the PRNG stream the random
// starts are drawn from. This module removes that coupling up front — every
// start assignment is materialized serially before any worker runs — and
// then evaluates the restarts through ThreadPool::for_each, each worker
// owning a private AnalysisContext over the one shared
// std::shared_ptr<const Instance>.
//
// Determinism contract (the Bobpp-style guarantee, tested in
// tests/test_parallel_search.cpp):
//  * restart starts are drawn serially from one Prng(seed) in restart
//    order, so restart k's start is a pure function of (seed, k), never of
//    thread count, worker identity, or claim order, and growing the
//    portfolio never changes earlier restarts (the prefix property);
//  * restart outcomes (score, final assignment, evaluation count, pattern
//    requests) are cache-state independent, so it does not matter which
//    warm worker context happens to run a restart (the AnalysisContext
//    bit-exactness contract);
//  * the reduction is serial and in restart order, keeping the best score
//    with strict improvement — ties always resolve to the LOWEST restart
//    index.
// Together these make ParallelSearchResult a pure function of
// (instance, options.search): bit-identical for any `threads` value,
// including 1, and equal to a serial fold of run_greedy_restart and
// run_random_restart in restart order (core/heuristics.hpp).
//
// Thread-safety rules: the Instance is immutable and shared read-only
// across all workers (no synchronization needed); an AnalysisContext is
// single-thread — the pool gives each worker its own and never migrates a
// running restart. Each call runs its own pool (the island portfolio keeps
// one across all its rounds); the entry points are re-entrant.
#pragma once

#include <cstdint>
#include <vector>

#include "core/heuristics.hpp"

namespace streamflow {

class PatternStore;

struct ParallelSearchOptions {
  /// Per-restart search options; `search.restarts` is the portfolio size R
  /// (0 and 1 both mean the greedy restart only) and `search.seed` seeds
  /// the restart starts.
  MappingSearchOptions search;
  /// Worker threads, the calling thread included; 0 means
  /// std::thread::hardware_concurrency(). The result does not depend on
  /// this value.
  std::size_t threads = 0;
  /// Batch mode only: give scenario j an independent stream family by
  /// advancing the seed stream j long jumps (2^192 draws) before its
  /// restart starts are drawn. Off by default, so every scenario
  /// reuses `search.seed` exactly as the serial batch CLI always has.
  bool scenario_streams = false;
  /// Optional shared PatternStore (core/pattern_store.hpp) attached to
  /// every worker context, so restarts share pattern solves across
  /// workers, calls, and (via snapshots) processes; without it each worker
  /// context reads its own store. Results are bit-identical with or
  /// without it, warm or cold — a store hit returns the bits a solve would
  /// have — so this field, like `threads`, can never reach a result. Not
  /// owned; must outlive the call.
  PatternStore* pattern_store = nullptr;

  // ---- Metaheuristic island portfolio (search.kind != kGreedyLocal) -------
  //
  // SA/tabu runs organize as `islands` deterministic islands: island 0 is
  // seeded by the full greedy restart (so the portfolio never falls below
  // the greedy baseline) and island k >= 1 by a random start drawn from
  // StreamFactory substream k. Each synchronization round runs one leg per
  // island (legs of a round may run concurrently; a leg touches only its
  // island, its private substream, and worker-private contexts), then — on
  // one thread, in island order — island k adopts the best of island
  // (k-1 mod islands) as its incumbent iff it strictly beats k's own best.
  // After `sync_rounds` rounds the best island (strict improvement, lowest
  // index on ties) gets a final local-search polish. Every cross-island
  // interaction happens at the serial exchange points, so the whole run is
  // a pure function of (seed, options) — thread-count independent like the
  // greedy portfolio. Ignored for kGreedyLocal.

  /// Island count of the metaheuristic portfolio (>= 1).
  std::size_t islands = 4;
  /// Synchronization rounds, i.e. legs per island (>= 1).
  std::size_t sync_rounds = 8;
};

/// Result of one portfolio. All counters are thread-count invariant: they
/// are sums of per-restart deltas, and each restart's deltas are
/// cache-state independent. (The hit/miss *split* inside a worker's cache
/// is scheduling-dependent, which is why it is deliberately not reported.)
struct ParallelSearchResult {
  Mapping mapping;                 ///< the best mapping found
  double throughput = 0.0;         ///< its objective value
  double greedy_throughput = 0.0;  ///< restart 0's construction score
  /// Restart index that produced `mapping` (lowest index on ties).
  std::size_t best_restart = 0;
  /// Portfolio size actually run (max(search.restarts, 1)).
  std::size_t restarts = 0;
  /// Workers the pool ran with (min(resolved threads, restarts)).
  std::size_t threads_used = 0;
  /// Objective evaluations summed across all restarts: every evaluation of
  /// a feasible candidate, greedy construction included (committing an
  /// already-evaluated move is not recounted).
  std::size_t evaluations = 0;
  /// Pattern solves requested (cache hits + misses) summed across restarts.
  std::size_t pattern_requests = 0;
  /// Move probes skipped by the tier-1 cycle-time screen, summed across
  /// restarts (0 under BoundPolicy::kNone). Pruned probes still count in
  /// `evaluations`, so that counter is bit-equal to the unscreened
  /// search's; moves_solved + moves_pruned_mct + moves_pruned_maxplus
  /// equals the unscreened search's moves_solved (asserted in tests).
  std::size_t moves_pruned_mct = 0;
  /// Move probes skipped by the tier-2 max-plus screen.
  std::size_t moves_pruned_maxplus = 0;
  /// Move probes that survived the screens and paid the full solve.
  std::size_t moves_solved = 0;
  /// Per-restart outcomes in restart order (the determinism witness: this
  /// whole vector is bit-identical for any thread count). For an island
  /// portfolio: one row per island, accumulating that island's legs (plus
  /// the greedy seeding for island 0 and the polish for the winner).
  std::vector<RestartResult> trace;
};

/// Runs the portfolio over the thread pool. Requires num_processors >=
/// num_stages, and the Overlap model for the exponential objective —
/// validated up front, on the caller's thread. Exceptions thrown inside a
/// restart are rethrown here; when several restarts fail, the lowest
/// restart index wins (deterministic). Throws InvalidArgument when no
/// restart reaches a feasible mapping.
ParallelSearchResult parallel_optimize_mapping(
    const InstancePtr& instance, const ParallelSearchOptions& options);

/// The second parallel axis: one portfolio per scenario, scenarios fanned
/// out through ThreadPool::for_each (each scenario's restarts run serially
/// inside the worker that claimed it) and results returned in scenario
/// order.
/// Workers keep their AnalysisContext warm across the scenarios they claim;
/// results are nevertheless identical for any thread count because every
/// per-scenario outcome is cache-state independent. With
/// `options.scenario_streams`, scenario j's seed stream is advanced j long
/// jumps first; otherwise all scenarios share `search.seed` (so identical
/// instance files produce identical rows — the CLI batch contract).
/// Requires search.kind == kGreedyLocal: the batch axis composes with the
/// restart portfolio; island metaheuristics run per instance through
/// parallel_optimize_mapping.
std::vector<ParallelSearchResult> parallel_optimize_batch(
    const std::vector<InstancePtr>& instances,
    const ParallelSearchOptions& options);

}  // namespace streamflow
