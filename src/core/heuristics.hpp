// Mapping-search heuristics — the paper's stated next step ("we will devote
// future work to designing polynomial time heuristics for the NP-complete
// [mapping] problem... Thanks to the methodology introduced in this paper,
// we will be able to compute the throughput of heuristics and compare
// them"). This module does exactly that: greedy construction plus
// steepest-ascent local search, scored by the throughput evaluators of this
// library.
//
// The search explores one-to-many mappings (each processor serves at most
// one stage; every stage gets a non-empty team) with two move kinds:
// migrating a processor to another team and swapping processors between
// teams. Mappings whose lcm of replication factors exceeds `max_paths` are
// rejected (their analysis cost would explode — and in practice such
// mappings are also operationally fragile).
//
// Scoring runs through core/analysis_context.hpp: neighbour candidates are
// evaluated incrementally (only the columns a move touches are re-solved)
// and every communication-pattern CTMC solve is memoized across candidates.
// The incremental path is bit-identical to full re-evaluation (asserted in
// Debug builds), so the search trajectory — and therefore the result — does
// not depend on the cache state.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "model/mapping.hpp"

namespace streamflow {

class AnalysisContext;
class Prng;

/// What the search maximizes.
enum class MappingObjective {
  /// Deterministic throughput (Section 4 analysis). Valid for both models.
  kDeterministic,
  /// Exponential-case throughput (Theorem 3/4 column method; Overlap only).
  kExponential,
};

/// Admissible bound screens applied by AnalysisContext::probe_move before a
/// candidate is solved. A screen may only skip candidates it can PROVE
/// cannot beat the caller's adoption threshold, so the search trajectory —
/// and therefore the final mapping and score — is bit-identical to the
/// unscreened search under every policy (Debug builds re-solve a sample of
/// pruned moves and assert; tests/test_heuristics.cpp and the fuzz
/// harness's pruned-search check pin it).
enum class BoundPolicy {
  /// No screening: every feasible candidate is solved (the PR 5 behaviour,
  /// and the default — the pinned evaluation counts depend on it).
  kNone,
  /// Tier 1 only: the O(touched-teams) incremental cycle-time bound built
  /// from Mapping::cycle_time (min over stages of the per-team saturated
  /// rate sum — see Mapping::stage_rate_bound).
  kMct,
  /// Tier 1, escalating to the max-plus deterministic analysis
  /// (maxplus/deterministic, Theorem 7: rho_exp <= rho_det) when the cheap
  /// bound is inconclusive. The escalation applies to the exponential
  /// objective only — for the deterministic objective the max-plus analysis
  /// IS the solve.
  kMctMaxplus,
};

/// Which search runs inside one restart / island leg.
enum class RestartKind {
  /// Greedy construction + steepest first-improvement local search (the
  /// PR 3–5 search; restart k >= 1 starts from a random assignment).
  kGreedyLocal,
  /// Simulated annealing over the migrate/swap neighbourhood, organized as
  /// deterministic islands by engine/parallel_search (island k draws from
  /// StreamFactory substream k; incumbents exchanged only at fixed
  /// synchronization rounds).
  kAnnealing,
  /// Tabu search (best-neighbour steps with a recency tabu on the reversing
  /// attribute, aspiration on the global best), same island organization.
  kTabu,
};

struct MappingSearchOptions {
  ExecutionModel model = ExecutionModel::kOverlap;
  MappingObjective objective = MappingObjective::kExponential;
  /// Random restarts of the local search (the first start is greedy).
  /// Values 0 and 1 are equivalent: both run the greedy construction plus
  /// one local-search pass and no random restart (tested in
  /// tests/test_heuristics.cpp).
  std::size_t restarts = 4;
  /// Local-search sweeps per start before giving up on improvement.
  std::size_t max_sweeps = 50;
  /// Reject mappings with lcm(R_1..R_N) above this.
  std::int64_t max_paths = 256;
  std::uint64_t seed = 1;
  /// Leave processors unused when that helps (a slow straggler can reduce
  /// a replicated stage's paced throughput). If false, every processor is
  /// assigned somewhere.
  bool allow_unused_processors = true;

  // ---- Bound screening (AnalysisContext::probe_move) -----------------------

  /// Admissible screens applied before each candidate solve. Final mappings
  /// and scores are bit-identical under every policy; only the number of
  /// CTMC solves (and the evaluation counters) changes.
  BoundPolicy bounds = BoundPolicy::kNone;
  /// Relative slack applied to a bound before comparing it to the adoption
  /// threshold: prune only when bound * (1 + bound_slack) <= threshold.
  /// Absorbs FP rounding between the bound arithmetic and the solver;
  /// mutation tests tighten it to prove the comparison bites.
  double bound_slack = 1e-9;

  // ---- Metaheuristic knobs (kAnnealing / kTabu islands) --------------------

  /// Which search runs per restart / island leg. The serial
  /// optimize_mapping supports kGreedyLocal only; kAnnealing/kTabu run as
  /// deterministic islands through engine/parallel_search.
  RestartKind kind = RestartKind::kGreedyLocal;
  /// Moves proposed (annealing) or best-neighbour steps taken (tabu) per
  /// island leg, i.e. between two synchronization points.
  std::size_t moves_per_leg = 64;
  /// Relative initial temperature of the annealing acceptance rule
  /// (accept a candidate iff score > current * (1 + T_r * ln u),
  /// u ~ U(0,1)); T_r = sa_initial_temp * sa_cooling^round.
  double sa_initial_temp = 0.20;
  double sa_cooling = 0.85;
  /// Steps a reversing attribute (processor, origin stage) stays tabu.
  std::size_t tabu_tenure = 8;
};

struct MappingSearchResult {
  Mapping mapping;                ///< the best mapping found
  double throughput = 0.0;        ///< its objective value
  double greedy_throughput = 0.0; ///< objective after greedy construction
  /// Every objective evaluation of a feasible candidate, greedy
  /// construction included: full evaluations plus incremental move
  /// evaluations (committing an already-evaluated move is not recounted).
  std::size_t evaluations = 0;
  /// Communication-pattern CTMC solves answered from the context cache
  /// during this search (0 for the deterministic objective).
  std::size_t pattern_cache_hits = 0;
  /// Pattern CTMC solves actually computed (cache misses) during this
  /// search.
  std::size_t pattern_cache_misses = 0;
  /// Move probes skipped by the tier-1 cycle-time screen (0 under
  /// BoundPolicy::kNone). Pruned probes still count in `evaluations`, so
  /// that counter is bit-equal to the unscreened search's;
  /// moves_solved + moves_pruned_mct + moves_pruned_maxplus equals the
  /// unscreened search's moves_solved (asserted in tests).
  std::size_t moves_pruned_mct = 0;
  /// Move probes skipped by the tier-2 max-plus screen.
  std::size_t moves_pruned_maxplus = 0;
  /// Move probes that survived the screens and paid the full solve.
  std::size_t moves_solved = 0;
};

/// Runs the search. Requires num_processors >= num_stages.
/// Throws InvalidArgument for kExponential with the Strict model, and
/// when no restart reaches a feasible mapping. The overload without a
/// context uses a private throwaway AnalysisContext; pass a shared context
/// to reuse pattern solves across searches (results are identical either
/// way — see the determinism tests).
///
/// The InstancePtr overloads are the primary entry points: every candidate
/// mapping of the whole search shares that one immutable instance (no copy
/// of the application or the bandwidth matrix, ever — asserted in
/// tests/test_heuristics.cpp). The (application, platform) overloads are
/// compatibility wrappers that bundle their arguments into one shared
/// instance up front and forward.
MappingSearchResult optimize_mapping(const InstancePtr& instance,
                                     const MappingSearchOptions& options = {});
MappingSearchResult optimize_mapping(const InstancePtr& instance,
                                     const MappingSearchOptions& options,
                                     AnalysisContext& context);
MappingSearchResult optimize_mapping(const Application& application,
                                     const Platform& platform,
                                     const MappingSearchOptions& options = {});
MappingSearchResult optimize_mapping(const Application& application,
                                     const Platform& platform,
                                     const MappingSearchOptions& options,
                                     AnalysisContext& context);

/// Scores one mapping under the chosen objective (exposed for comparisons).
double evaluate_mapping(const Mapping& mapping,
                        const MappingSearchOptions& options);

// ---- Re-entrant single-restart API ----------------------------------------
//
// optimize_mapping is a serial in-order reduction over independent restarts:
// restart 0 is the greedy construction plus one local-search pass, restart
// k >= 1 is a local-search pass from a drawn random start. The pieces are
// exposed here so a portfolio driver (engine/parallel_search.hpp) can fan
// the restarts out over a thread pool: every function below touches only
// its arguments — the shared immutable instance is read-only and the
// AnalysisContext carries all mutable state — so any number of restarts may
// run concurrently as long as each thread brings its own context.

/// The assignment representation of the search: the stage index served by
/// each processor, with Mapping::kUnused for processors left out.
using StageAssignment = std::vector<std::size_t>;

/// Outcome of one restart. Scores, assignments, and the evaluation counts
/// are independent of the cache state of the context that ran the restart
/// (the AnalysisContext bit-exactness contract), so a restart computes the
/// same RestartResult on a cold private context as it does mid-way through
/// a long-lived shared one — the property the parallel portfolio relies on.
struct RestartResult {
  /// False when the start never reached a feasible mapping (the restart is
  /// skipped by the reduction; `score` stays -infinity).
  bool feasible = false;
  /// Objective value after local search.
  double score = -std::numeric_limits<double>::infinity();
  /// Objective value of the start itself: the greedy construction score for
  /// restart 0 (reported as MappingSearchResult::greedy_throughput), the
  /// first feasible score for a random restart.
  double start_score = -std::numeric_limits<double>::infinity();
  /// Final assignment of the restart (realize it with realize_assignment).
  StageAssignment assignment;
  /// Objective evaluations consumed by this restart (cache-independent).
  std::size_t evaluations = 0;
  /// Pattern solves requested by this restart: cache hits + misses. The
  /// hit/miss split depends on the warmth of the context, the sum does not.
  std::size_t pattern_requests = 0;
  /// Bound-screen accounting for this restart (see MappingSearchResult).
  std::size_t moves_pruned_mct = 0;
  std::size_t moves_pruned_maxplus = 0;
  std::size_t moves_solved = 0;
};

/// Validates (instance, options) exactly as optimize_mapping does; throws
/// InvalidArgument on violation. Portfolio drivers call this once before
/// fanning restarts out so option errors surface on the caller's thread.
void validate_mapping_search(const InstancePtr& instance,
                             const MappingSearchOptions& options);

/// Restart 0: greedy construction (heaviest stages on fastest processors,
/// remaining processors placed where they score best) followed by one
/// local-search pass. Deterministic — consumes no randomness.
RestartResult run_greedy_restart(const InstancePtr& instance,
                                 const MappingSearchOptions& options,
                                 AnalysisContext& context);

/// Draws the random start assignment of one restart — exactly the draw the
/// serial optimize_mapping makes, exposed so a portfolio can materialize
/// every start up front (sequentially, preserving the serial draw order)
/// before fanning the searches out.
StageAssignment draw_restart_assignment(const Application& application,
                                        const Platform& platform, Prng& prng);

/// Restart k >= 1: local search from `start`. Infeasible starts return
/// feasible == false without consuming any evaluation (matching the serial
/// search, which skips them).
RestartResult run_random_restart(const InstancePtr& instance,
                                 StageAssignment start,
                                 const MappingSearchOptions& options,
                                 AnalysisContext& context);

/// Builds the validated Mapping for `assignment` on the shared instance;
/// nullopt when the assignment is infeasible (empty team, unusable link, or
/// lcm of replications above max_paths).
std::optional<Mapping> realize_assignment(const InstancePtr& instance,
                                          const StageAssignment& assignment,
                                          std::int64_t max_paths);

// ---- Metaheuristic island legs (kAnnealing / kTabu) -------------------------
//
// engine/parallel_search organizes the SA/tabu kinds as deterministic
// islands: island k owns one IslandState and one Prng (StreamFactory
// substream k), runs one leg per synchronization round (legs of one round
// may run concurrently on worker-private contexts — a leg reads only its
// island, its prng, and the shared immutable instance), and exchanges
// incumbents only between rounds, on one thread. The island trajectory is
// therefore a pure function of (seed, options), independent of thread
// count.

/// Mutable state of one island between synchronization rounds.
struct IslandState {
  /// False until the island has a feasible incumbent (a random start may be
  /// infeasible; such islands skip their legs — consuming no randomness —
  /// until an exchange hands them one).
  bool feasible = false;
  StageAssignment current;  ///< incumbent the next leg starts from
  double current_score = -std::numeric_limits<double>::infinity();
  StageAssignment best;  ///< best assignment this island has held
  double best_score = -std::numeric_limits<double>::infinity();
};

/// Runs one leg of `options.kind` (kAnnealing or kTabu) on `island`:
/// options.moves_per_leg proposal steps (annealing, drawing from `prng`) or
/// best-neighbour steps (tabu, consuming no randomness; the tabu list is
/// fresh per leg), screened through AnalysisContext::probe_move under
/// options.bounds. `round` scales the annealing temperature
/// (sa_initial_temp * sa_cooling^round). Returns the leg's deltas:
/// feasible/score/start_score reflect the island after/entering the leg,
/// and the counters cover this leg only (cache-independent, like every
/// RestartResult). An infeasible island returns immediately with
/// feasible == false.
RestartResult run_island_leg(const InstancePtr& instance, IslandState& island,
                             std::size_t round,
                             const MappingSearchOptions& options, Prng& prng,
                             AnalysisContext& context);

}  // namespace streamflow
