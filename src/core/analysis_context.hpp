// AnalysisContext — the memoizing throughput-evaluation layer.
//
// One context per analysis session (a mapping search, a batch of scenarios)
// owns:
//  (a) a pattern-solve cache: the saturated rate of every heterogeneous
//      communication pattern solved so far, keyed by its canonical
//      signature (tpn/columns.hpp's PatternSignature). The signature pins
//      (u, v, exact link durations), so entries are valid — and shared —
//      across every mapping evaluated through the context, even mappings of
//      different (application, platform) instances;
//  (b) reusable arenas for the column decomposition and flow recursion, so
//      repeated evaluations stop reallocating; and
//  (c) an incremental move-evaluation API for local search: set_base() pins
//      a mapping, evaluate_move() scores a migrate/swap neighbour by
//      re-solving only the columns whose teams the move touches and
//      re-running the (cheap) flow recursion over the component DAG, and
//      commit_move() adopts the last evaluated move for free.
//
// The column method splits as decompose -> solve_patterns -> compose:
// decompose produces the per-column communication patterns (tpn/columns),
// solve_patterns obtains each pattern's saturated rate from the cache, from
// a fresh Young-diagram CTMC solve (young/pattern_analysis over
// markov/throughput's saturated_flow), or from Theorem 4's closed form, and
// compose runs the forward flow recursion of Theorem 3 over the component
// DAG. The free function exponential_throughput() is a thin wrapper that
// builds a throwaway context.
//
// Every cached or incremental result is bit-identical to the throwaway
// path: a cache hit returns the double produced by an earlier solve of a
// bit-identical pattern (the solve is deterministic), and compose performs
// the same IEEE-754 operations in the same order whether the inner rates
// came from the cache or not. Debug builds assert this on every
// evaluate_move; tests/test_analysis_context.cpp pins it across move kinds
// and random instances.
//
// Thread safety: an AnalysisContext is SINGLE-THREADED — it owns mutable
// caches, arenas, and the pinned base; concurrent use is a data race.
// Parallel layers (engine/parallel_search.hpp) give every worker its own
// context over the one shared immutable Instance. That costs nothing in
// correctness precisely because of the bit-exactness contract above: a
// restart evaluated through a cold private context returns the same bits
// as one evaluated through a long-lived warm context, so results never
// depend on which worker (or cache) ran what.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "tpn/columns.hpp"

namespace streamflow {

class PatternStore;

/// Monotone counters of one AnalysisContext (clear() resets them).
struct AnalysisCacheStats {
  std::size_t pattern_hits = 0;    ///< CTMC solves answered from the cache
  std::size_t pattern_misses = 0;  ///< CTMC solves computed and stored
  /// The subset of `pattern_hits` answered by the attached PatternStore
  /// (zero without one). hits + misses == requests stays cache-state
  /// invariant; this split, like the local hit/miss split, is not.
  std::size_t store_hits = 0;
  /// Local solves published into the attached PatternStore.
  std::size_t store_publishes = 0;
  std::size_t closed_form = 0;     ///< homogeneous Theorem 4 evaluations
  /// Feasible candidates considered (full + incremental). A pruned probe
  /// counts: the candidate WAS evaluated, just via its bound instead of the
  /// exact solve, so this counter is bit-equal under any BoundPolicy.
  std::size_t evaluations = 0;
  /// The subset of `evaluations` served by evaluate_move()/probe_move().
  std::size_t move_evaluations = 0;
  std::size_t columns_reused = 0;      ///< base columns reused by moves
  std::size_t columns_recomputed = 0;  ///< columns moves had to re-solve
  /// Bound-screen accounting of probe_move(). Under ANY policy,
  /// move_evaluations == moves_solved + moves_pruned_mct +
  /// moves_pruned_maxplus; under BoundPolicy::kNone the pruned counters are
  /// zero, so moves_solved alone equals move_evaluations (the
  /// bit-identical-trajectory contract, asserted in tests).
  std::size_t moves_pruned_mct = 0;      ///< skipped by the tier-1 screen
  std::size_t moves_pruned_maxplus = 0;  ///< skipped by the tier-2 screen
  std::size_t moves_solved = 0;          ///< feasible probes fully solved
};

/// One local-search move in assignment space, applied to the pinned base.
struct MappingMove {
  enum class Kind { kMigrate, kSwap };
  Kind kind = Kind::kMigrate;
  std::size_t p = 0;  ///< the migrating processor / first swap arm
  std::size_t q = 0;  ///< second swap arm (kSwap only)
  /// Destination stage of p (kMigrate only); Mapping::kUnused benches p.
  std::size_t target = Mapping::kUnused;

  static MappingMove migrate(std::size_t p, std::size_t target) {
    return MappingMove{Kind::kMigrate, p, 0, target};
  }
  static MappingMove swap(std::size_t p, std::size_t q) {
    return MappingMove{Kind::kSwap, p, q, Mapping::kUnused};
  }

  bool operator==(const MappingMove&) const = default;
};

class AnalysisContext {
 public:
  explicit AnalysisContext(ExponentialOptions options = {});

  const ExponentialOptions& exponential_options() const { return options_; }

  /// Drop-in for the free exponential_throughput(): same contract, same
  /// bits, but pattern solves go through the cache and arenas are reused.
  ExponentialThroughput exponential(
      const Mapping& mapping, ExecutionModel model = ExecutionModel::kOverlap);

  /// Saturated rate of one communication pattern through the cache.
  /// Bit-identical to pattern_flow_exponential (heterogeneous pattern) or
  /// pattern_flow_exponential_homogeneous (Theorem 4 closed form).
  double pattern_rate(const CommPattern& pattern);

  /// evaluate_mapping() through the cache: the objective value of `mapping`
  /// under `options`. Counted in stats().evaluations.
  double objective(const Mapping& mapping, const MappingSearchOptions& options);

  // ---- Incremental search API ---------------------------------------------

  /// Pins `mapping` as the base of subsequent evaluate_move() calls and
  /// returns its objective value. Teams must list processors in increasing
  /// order (the normal form the search works in; moves re-derive teams from
  /// the per-processor assignment). Counted as one evaluation unless
  /// `count_evaluation` is false (used when re-basing onto an
  /// already-scored mapping).
  double set_base(Mapping mapping, const MappingSearchOptions& options,
                  bool count_evaluation = true);

  bool has_base() const { return base_mapping_.has_value(); }
  const Mapping& base_mapping() const;
  double base_score() const;

  /// Outcome of one probe_move() call.
  struct MoveProbe {
    enum class Outcome {
      kInfeasible,  ///< empty team, unusable link, or lcm above max_paths
      kPruned,      ///< a bound proved score <= threshold; no solve ran
      kScored,      ///< survived the screens; `score` is the objective
    };
    Outcome outcome = Outcome::kInfeasible;
    /// Objective of base (+) move (kScored only).
    double score = 0.0;
    /// The screening upper bound that decided a kPruned outcome.
    double bound = 0.0;
  };

  /// Objective of base (+) move, screened by the base options' BoundPolicy:
  /// before solving, cheap admissible upper bounds on the candidate's score
  /// are compared against `threshold` — the score a candidate must STRICTLY
  /// exceed to matter to the caller — and the solve is skipped (kPruned)
  /// whenever bound * (1 + bound_slack) <= threshold proves the candidate
  /// cannot exceed it. Tier 1 is the incremental per-stage cycle-time bound
  /// (Mapping::stage_rate_bound; O(touched-teams) against a cached base
  /// vector); tier 2, under BoundPolicy::kMctMaxplus with the exponential
  /// objective, is the max-plus deterministic analysis (Theorem 7:
  /// rho_exp <= rho_det). Pass -infinity to disable screening for this
  /// probe regardless of policy. A pruned probe still counts as one
  /// evaluation/move_evaluation (plus its pruned counter) — it is just
  /// never solved — so the evaluation counters of a screened search are
  /// bit-equal to the unscreened search's by construction. Debug builds
  /// re-solve a deterministic sample of pruned
  /// probes and assert score <= threshold, the exact property the
  /// bit-identical-trajectory contract needs. Does not change the base;
  /// only a kScored probe may be committed.
  MoveProbe probe_move(const MappingMove& move, double threshold);

  /// Objective of base (+) move, or nullopt when the move is infeasible
  /// (empty team, unusable link, or lcm of replications above max_paths).
  /// Only the columns adjacent to a touched stage are re-solved; all other
  /// columns reuse the base solves. Does not change the base. Equivalent
  /// to probe_move(move, -infinity), which never prunes.
  std::optional<double> evaluate_move(const MappingMove& move);

  /// Re-bases onto base (+) move. Must immediately follow a feasible
  /// evaluate_move(move) of the same move: the pending candidate state is
  /// adopted wholesale, so committing performs no new evaluation and
  /// changes no counter.
  double commit_move(const MappingMove& move);

  /// Attaches a shared PatternStore consulted on local-cache misses (and
  /// published into after local solves); nullptr detaches. The store must
  /// outlive every context attached to it. Results stay bit-identical with
  /// any store, warm or cold: a store hit returns the bits a local solve of
  /// the same signature would have produced (entries are immutable once
  /// published and solves are deterministic; Debug builds re-solve a
  /// sample of store hits and assert). The context itself remains
  /// single-threaded — the store is internally synchronized, the context
  /// is not.
  void set_pattern_store(PatternStore* store) { store_ = store; }
  PatternStore* pattern_store() const { return store_; }

  const AnalysisCacheStats& stats() const { return stats_; }

  /// Number of distinct heterogeneous patterns currently cached.
  std::size_t pattern_cache_size() const { return pattern_cache_.size(); }

  /// Drops the cache, the base, and the statistics.
  void clear();

 private:
  /// A solved communication component: its saturated (inner) rate plus the
  /// metadata compose() and the diagnostics need.
  struct SolvedComponent {
    double inner = 0.0;
    std::size_t u = 1;
    std::size_t v = 1;
    std::size_t g = 1;
    std::size_t file_index = 0;
    std::size_t component = 0;
    std::vector<std::size_t> senders;  ///< global sender ids (flow caps)
  };
  struct SolvedColumn {
    std::size_t g = 1;
    std::vector<SolvedComponent> comps;
  };

  struct SignatureHash {
    std::size_t operator()(const PatternSignature& s) const {
      return static_cast<std::size_t>(s.hash());
    }
  };

  SolvedColumn solve_column(const Mapping& mapping, std::size_t file_index);
  void solve_all_columns(const Mapping& mapping,
                         std::vector<SolvedColumn>& out);
  /// Full (non-incremental) column-method evaluation: solve every column
  /// into `columns`, then compose. The one path behind exponential(),
  /// objective(), and set_base(), so cached and uncached evaluations cannot
  /// diverge.
  void evaluate_columns(const Mapping& mapping,
                        std::vector<SolvedColumn>& columns,
                        bool want_components, ExponentialThroughput& out);
  /// The Theorem 3 forward flow recursion over the component DAG. Fills
  /// `out.throughput` / `out.in_order_throughput` (and `out.components`
  /// when `want_components`); bitwise-identical arithmetic either way.
  void compose(const Mapping& mapping,
               const std::vector<const SolvedColumn*>& columns,
               bool want_components, ExponentialThroughput& out);
  double objective_uncounted(const Mapping& mapping,
                             const MappingSearchOptions& options);
  static void check_objective(const Mapping& mapping,
                              const MappingSearchOptions& options);
  /// Debug-only sampled re-solve of a pruned candidate (no-op in Release).
  void debug_check_pruned(const Mapping& candidate, double threshold);
  /// Debug-only sampled re-solve of a store hit, asserting the stored rate
  /// equals a fresh solve bit for bit (no-op in Release).
  void debug_check_store_hit(const CommPattern& pattern, double rate);

  ExponentialOptions options_;
  AnalysisCacheStats stats_;
  /// Optional shared second tier behind pattern_cache_ (not owned).
  PatternStore* store_ = nullptr;
  // Point-queried only (find/emplace/clear/size) and NEVER iterated:
  // iteration order would depend on hash seeding and insertion history,
  // and must not be able to reach results. The unordered-iter lint rule
  // guards this invariant tree-wide.
  std::unordered_map<PatternSignature, double, SignatureHash> pattern_cache_;

  // Arenas reused across evaluations.
  std::vector<double> eff_;
  std::vector<double> flow_;
  std::vector<SolvedColumn> full_columns_;
  std::vector<const SolvedColumn*> column_ptrs_;

  // Base state of the incremental API.
  std::optional<Mapping> base_mapping_;
  MappingSearchOptions base_options_;
  std::vector<std::size_t> base_assignment_;  ///< stage per processor
  std::vector<SolvedColumn> base_columns_;    ///< exponential objective only
  double base_score_ = 0.0;
  /// Per-stage tier-1 bounds S_i of the base (BoundPolicy != kNone only);
  /// probes refresh the touched entries on the candidate and commit swaps
  /// the refreshed vector in.
  std::vector<double> base_stage_bounds_;
  std::vector<double> scratch_stage_bounds_;

  // Pending candidate of the last feasible evaluate_move (commit adopts it).
  bool scratch_valid_ = false;
  MappingMove scratch_move_;
  std::optional<Mapping> scratch_mapping_;
  std::vector<std::size_t> scratch_assignment_;
  std::vector<SolvedColumn> scratch_columns_;
  std::vector<char> scratch_touched_;
  double scratch_score_ = 0.0;
  std::vector<std::vector<std::size_t>> scratch_teams_;
};

}  // namespace streamflow
