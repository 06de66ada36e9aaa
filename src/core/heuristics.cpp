#include "core/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/analysis_context.hpp"

namespace streamflow {

namespace {

constexpr std::size_t kUnassigned = Mapping::kUnused;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Relative initial temperature of the annealing acceptance rule (accept a
/// candidate iff score > current * (1 + T_r * ln u), u ~ U(0,1)), cooled
/// geometrically per synchronization round: T_r = 0.20 * 0.85^r.
constexpr double kAnnealingInitialTemp = 0.20;
constexpr double kAnnealingCooling = 0.85;
/// Steps a reversing attribute (processor, origin stage) stays tabu.
constexpr std::size_t kTabuTenure = 8;

/// Assignment representation: stage index per processor (or kUnassigned).
using Assignment = std::vector<std::size_t>;

std::optional<Mapping> realize(const InstancePtr& instance,
                               const Assignment& assignment,
                               std::int64_t max_paths) {
  std::vector<std::vector<std::size_t>> teams(
      instance->application.num_stages());
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    if (assignment[p] != kUnassigned) teams[assignment[p]].push_back(p);
  }
  for (const auto& team : teams) {
    if (team.empty()) return std::nullopt;
  }
  try {
    // Shares `instance` — realizing an assignment never copies the
    // application or the bandwidth matrix.
    Mapping mapping(instance, std::move(teams));
    if (mapping.num_paths() > max_paths) return std::nullopt;
    return mapping;
  } catch (const InvalidArgument&) {
    // e.g. a used link has no bandwidth on this platform
    return std::nullopt;
  }
}

void apply_move(Assignment& assignment, const MappingMove& move) {
  if (move.kind == MappingMove::Kind::kMigrate) {
    assignment[move.p] = move.target;
  } else {
    std::swap(assignment[move.p], assignment[move.q]);
  }
}

/// One search trajectory: the current assignment plus the context base that
/// mirrors it. Neighbour candidates are probed through the incremental
/// evaluate_move path once a feasible base is pinned; until then (an
/// infeasible start, which local search may still climb out of) probes fall
/// back to full throwaway evaluations through the same context.
class SearchState {
 public:
  SearchState(const InstancePtr& instance,
              const MappingSearchOptions& options, AnalysisContext& context,
              Assignment assignment)
      : instance_(instance),
        options_(options),
        context_(context),
        assignment_(std::move(assignment)) {
    auto mapping = realize(instance_, assignment_, options_.max_paths);
    if (mapping) {
      current_ = context_.set_base(std::move(*mapping), options_);
      has_base_ = true;
    }
  }

  const Assignment& assignment() const { return assignment_; }
  double current() const { return current_; }
  bool feasible() const { return has_base_; }

  /// Objective of assignment (+) move; nullopt when infeasible OR when the
  /// context's bound screen proved the score cannot exceed `threshold`
  /// (callers pass the score a candidate must strictly beat to be adopted,
  /// so a pruned probe and a sub-threshold score lead to the same step —
  /// the bit-identical-trajectory contract). A scored probe counts as one
  /// evaluation; a pruned one does not. Does not change the assignment.
  std::optional<double> probe(const MappingMove& move,
                              double threshold = kNegInf) {
    if (has_base_) {
      const auto result = context_.probe_move(move, threshold);
      if (result.outcome != AnalysisContext::MoveProbe::Outcome::kScored)
        return std::nullopt;
      return result.score;
    }
    Assignment tentative = assignment_;
    apply_move(tentative, move);
    auto mapping = realize(instance_, tentative, options_.max_paths);
    if (!mapping) return std::nullopt;
    return context_.objective(*mapping, options_);
  }

  /// Adopts the move just probed feasible with value `score`. Free when a
  /// base is pinned (the pending evaluate_move candidate is committed).
  void adopt_last(const MappingMove& move, double score) {
    apply_move(assignment_, move);
    if (has_base_) {
      context_.commit_move(move);
    } else {
      auto mapping = realize(instance_, assignment_, options_.max_paths);
      SF_ASSERT(mapping.has_value(),
                "adopted a move whose probe reported it feasible");
      // The score is already known; re-base without recounting.
      context_.set_base(std::move(*mapping), options_,
                        /*count_evaluation=*/false);
      has_base_ = true;
    }
    current_ = score;
  }

 private:
  const InstancePtr& instance_;
  const MappingSearchOptions& options_;
  AnalysisContext& context_;
  Assignment assignment_;
  double current_ = kNegInf;
  bool has_base_ = false;
};

/// Processor ids in decreasing-speed order. Computed once per search:
/// std::sort is unstable, so the seeding and placement phases must share
/// ONE ordering (a re-sort could break ties differently).
std::vector<std::size_t> processors_by_speed(const Platform& platform) {
  std::vector<std::size_t> procs(platform.num_processors());
  std::iota(procs.begin(), procs.end(), std::size_t{0});
  std::sort(procs.begin(), procs.end(), [&](std::size_t a, std::size_t b) {
    return platform.speed(a) > platform.speed(b);
  });
  return procs;
}

/// Initial seeding of the greedy construction: heaviest stages get the
/// fastest processors (no scoring involved).
Assignment initial_greedy_assignment(
    const Application& application, const Platform& platform,
    const std::vector<std::size_t>& procs_by_speed) {
  const std::size_t n = application.num_stages();

  std::vector<std::size_t> stages_by_work(n);
  std::iota(stages_by_work.begin(), stages_by_work.end(), std::size_t{0});
  std::sort(stages_by_work.begin(), stages_by_work.end(),
            [&](std::size_t a, std::size_t b) {
              return application.work(a) > application.work(b);
            });

  Assignment assignment(platform.num_processors(), kUnassigned);
  for (std::size_t k = 0; k < n; ++k)
    assignment[procs_by_speed[k]] = stages_by_work[k];
  return assignment;
}

/// Greedy construction: each remaining processor joins the team where it
/// raises the objective most, and stays unused when no placement improves
/// (a slow straggler can pace a replicated stage down).
void greedy_place_extras(SearchState& state, const Application& application,
                         const std::vector<std::size_t>& procs_by_speed) {
  const std::size_t n = application.num_stages();
  const std::size_t m = procs_by_speed.size();

  for (std::size_t k = n; k < m; ++k) {
    const std::size_t p = procs_by_speed[k];
    double best = state.current();
    std::size_t best_stage = kUnassigned;
    for (std::size_t i = 0; i < n; ++i) {
      const auto score = state.probe(MappingMove::migrate(p, i), best);
      if (score && *score > best) {
        best = *score;
        best_stage = i;
      }
    }
    if (best_stage != kUnassigned) {
      // Re-probe so the commit adopts the pending candidate state.
      const MappingMove move = MappingMove::migrate(p, best_stage);
      const auto score = state.probe(move);
      SF_ASSERT(score.has_value(), "chosen greedy placement turned infeasible");
      state.adopt_last(move, *score);
    }
  }
}

Assignment random_assignment(const Application& application,
                             const Platform& platform, Prng& prng) {
  const std::size_t n = application.num_stages();
  const std::size_t m = platform.num_processors();
  Assignment assignment(m, kUnassigned);
  // One random processor per stage first (feasibility), then the rest at
  // random stages (possibly unassigned).
  std::vector<std::size_t> procs(m);
  std::iota(procs.begin(), procs.end(), std::size_t{0});
  for (std::size_t i = m; i > 1; --i) {
    std::swap(procs[i - 1], procs[prng.uniform_index(i)]);
  }
  for (std::size_t i = 0; i < n; ++i) assignment[procs[i]] = i;
  for (std::size_t k = n; k < m; ++k) {
    const std::size_t bucket = prng.uniform_index(n + 1);
    assignment[procs[k]] = bucket == n ? kUnassigned : bucket;
  }
  return assignment;
}

/// First-improvement local search over migrate and swap moves.
double local_search(SearchState& state, const MappingSearchOptions& options,
                    std::size_t n) {
  const std::size_t m = state.assignment().size();
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool improved = false;
    // Migration moves: processor p -> stage i (or unassigned, i == n).
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t original = state.assignment()[p];
      for (std::size_t i = 0; i <= n; ++i) {
        const std::size_t target = i == n ? kUnassigned : i;
        if (target == original) continue;
        const MappingMove move = MappingMove::migrate(p, target);
        // The adoption epsilon IS the screen threshold: a pruned probe and
        // a score failing the comparison take the same branch.
        const double threshold = state.current() * (1.0 + 1e-12);
        const auto candidate = state.probe(move, threshold);
        if (candidate && *candidate > threshold) {
          state.adopt_last(move, *candidate);
          improved = true;
          break;  // keep the move
        }
      }
    }
    // Swap moves: exchange the stages of p and q.
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        if (state.assignment()[p] == state.assignment()[q]) continue;
        const MappingMove move = MappingMove::swap(p, q);
        const double threshold = state.current() * (1.0 + 1e-12);
        const auto candidate = state.probe(move, threshold);
        if (candidate && *candidate > threshold) {
          state.adopt_last(move, *candidate);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return state.current();
}

/// The cache-independent counter deltas of one restart / leg.
void fill_counter_deltas(RestartResult& result, const AnalysisCacheStats& before,
                         const AnalysisCacheStats& after) {
  result.evaluations = after.evaluations - before.evaluations;
  result.pattern_requests = (after.pattern_hits - before.pattern_hits) +
                            (after.pattern_misses - before.pattern_misses);
  result.moves_pruned_mct = after.moves_pruned_mct - before.moves_pruned_mct;
  result.moves_pruned_maxplus =
      after.moves_pruned_maxplus - before.moves_pruned_maxplus;
  result.moves_solved = after.moves_solved - before.moves_solved;
}

}  // namespace

double evaluate_mapping(const Mapping& mapping,
                        const MappingSearchOptions& options) {
  AnalysisContext context;
  return context.objective(mapping, options);
}

void validate_mapping_search(const InstancePtr& instance,
                             const MappingSearchOptions& options) {
  SF_REQUIRE(instance != nullptr, "mapping search requires an instance");
  SF_REQUIRE(instance->platform.num_processors() >=
                 instance->application.num_stages(),
             "need at least one processor per stage");
  SF_REQUIRE(options.max_paths >= 1, "max_paths must be at least 1");
  SF_REQUIRE(options.restarts <= MappingSearchOptions::kMaxRestarts,
             "restarts must be at most " +
                 std::to_string(MappingSearchOptions::kMaxRestarts));
  if (options.objective == MappingObjective::kExponential) {
    SF_REQUIRE(options.model == ExecutionModel::kOverlap,
               "the exponential objective uses the column method, which "
               "applies to the Overlap model only");
  }
}

RestartResult run_greedy_restart(const InstancePtr& instance,
                                 const MappingSearchOptions& options,
                                 AnalysisContext& context) {
  validate_mapping_search(instance, options);
  const Application& application = instance->application;
  const AnalysisCacheStats before = context.stats();

  const std::vector<std::size_t> procs_by_speed =
      processors_by_speed(instance->platform);
  SearchState state(
      instance, options, context,
      initial_greedy_assignment(application, instance->platform,
                                procs_by_speed));
  greedy_place_extras(state, application, procs_by_speed);

  RestartResult result;
  result.start_score = state.current();
  result.score = local_search(state, options, application.num_stages());
  result.feasible = state.feasible();
  result.assignment = state.assignment();
  fill_counter_deltas(result, before, context.stats());
  return result;
}

StageAssignment draw_restart_assignment(const Application& application,
                                        const Platform& platform, Prng& prng) {
  return random_assignment(application, platform, prng);
}

RestartResult run_random_restart(const InstancePtr& instance,
                                 StageAssignment start,
                                 const MappingSearchOptions& options,
                                 AnalysisContext& context) {
  validate_mapping_search(instance, options);
  const AnalysisCacheStats before = context.stats();

  SearchState state(instance, options, context, std::move(start));
  RestartResult result;
  result.assignment = state.assignment();
  if (!state.feasible()) return result;  // skipped, no evaluation consumed
  result.start_score = state.current();
  result.score =
      local_search(state, options, instance->application.num_stages());
  result.feasible = true;
  result.assignment = state.assignment();
  fill_counter_deltas(result, before, context.stats());
  return result;
}

RestartResult run_island_leg(const InstancePtr& instance, IslandState& island,
                             std::size_t round,
                             const MappingSearchOptions& options, Prng& prng,
                             AnalysisContext& context) {
  SF_REQUIRE(options.kind != RestartKind::kGreedyLocal,
             "run_island_leg serves the metaheuristic kinds; kGreedyLocal "
             "restarts run through run_greedy_restart/run_random_restart");
  validate_mapping_search(instance, options);
  RestartResult result;
  if (!island.feasible) return result;  // skipped; consumes no randomness
  const AnalysisCacheStats before = context.stats();

  const std::size_t n = instance->application.num_stages();
  const std::size_t m = instance->platform.num_processors();
  SearchState state(instance, options, context, island.current);
  SF_ASSERT(state.feasible(), "island incumbent turned infeasible");
  result.start_score = state.current();

  // The (re-)scored incumbent itself may beat the island's best: the round
  // exchange hands a neighbour's best over as `current` without touching
  // `best`, and a random island's first leg starts with best still at
  // -infinity.
  auto note_best = [&]() {
    if (state.current() > island.best_score) {
      island.best_score = state.current();
      island.best = state.assignment();
    }
  };
  note_best();

  if (options.kind == RestartKind::kAnnealing) {
    const double temp =
        kAnnealingInitialTemp *
        std::pow(kAnnealingCooling, static_cast<double>(round));
    for (std::size_t step = 0; step < options.moves_per_leg; ++step) {
      // Draw discipline: every step consumes exactly four variates BEFORE
      // any feasibility or acceptance test, so the stream position is a
      // pure function of the step count — never of probe outcomes.
      const bool migrating = prng.uniform_index(2) == 0;
      const std::size_t p = prng.uniform_index(m);
      const std::size_t aux = prng.uniform_index(migrating ? n + 1 : m);
      const double u = prng.uniform01();

      MappingMove move;
      if (migrating) {
        const std::size_t target = aux == n ? kUnassigned : aux;
        if (target == state.assignment()[p]) continue;  // no-op proposal
        move = MappingMove::migrate(p, target);
      } else {
        if (aux == p || state.assignment()[p] == state.assignment()[aux])
          continue;
        move = MappingMove::swap(p, aux);
      }
      // Relative Metropolis rule: accept iff score > theta with
      // theta = current * (1 + T * ln u). ln u <= 0, so improving moves
      // always pass; worsening moves pass with probability
      // exp(relative-loss / T). theta is also the admissible screen
      // threshold — a pruned probe and a rejected score take the same
      // branch.
      const double theta = state.current() * (1.0 + temp * std::log(u));
      const auto candidate = state.probe(move, theta);
      if (candidate && *candidate > theta) {
        state.adopt_last(move, *candidate);
        note_best();
      }
    }
  } else {
    // Tabu search: take the best admissible neighbour each step (even when
    // it is worse — that is the escape mechanism), forbidding moves that
    // return a just-moved processor to the stage it left for kTabuTenure
    // steps, unless the move would beat the island's best (aspiration).
    // Consumes no randomness; the table is fresh each leg.
    std::vector<std::size_t> tabu_until(m * (n + 1), 0);
    const auto slot = [n](std::size_t p, std::size_t stage) {
      return p * (n + 1) + (stage == kUnassigned ? n : stage);
    };
    for (std::size_t step = 1; step <= options.moves_per_leg; ++step) {
      double best_score = kNegInf;
      MappingMove best_move;
      bool found = false;
      const auto consider = [&](const MappingMove& move, bool tabu) {
        // A non-tabu candidate must beat the running best neighbour; a tabu
        // one must additionally beat the island best (aspiration) — so the
        // larger of the two is its admissible screen threshold.
        const double threshold =
            tabu ? std::max(best_score, island.best_score) : best_score;
        const auto candidate = state.probe(move, threshold);
        if (!candidate) return;
        if (tabu && !(*candidate > island.best_score)) return;
        if (*candidate > best_score) {
          best_score = *candidate;
          best_move = move;
          found = true;
        }
      };
      for (std::size_t p = 0; p < m; ++p) {
        const std::size_t from = state.assignment()[p];
        for (std::size_t i = 0; i <= n; ++i) {
          const std::size_t target = i == n ? kUnassigned : i;
          if (target == from) continue;
          consider(MappingMove::migrate(p, target),
                   tabu_until[slot(p, target)] >= step);
        }
      }
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t q = p + 1; q < m; ++q) {
          if (state.assignment()[p] == state.assignment()[q]) continue;
          const bool tabu =
              tabu_until[slot(p, state.assignment()[q])] >= step ||
              tabu_until[slot(q, state.assignment()[p])] >= step;
          consider(MappingMove::swap(p, q), tabu);
        }
      }
      if (!found) break;  // every neighbour tabu and none aspiring
      // Mark the reversing attributes before moving: each arm may not
      // return to the stage it leaves until the tenure expires.
      tabu_until[slot(best_move.p, state.assignment()[best_move.p])] =
          step + kTabuTenure;
      if (best_move.kind == MappingMove::Kind::kSwap) {
        tabu_until[slot(best_move.q, state.assignment()[best_move.q])] =
            step + kTabuTenure;
      }
      // Unscreened re-probe so the commit adopts the pending candidate.
      const auto score = state.probe(best_move);
      SF_ASSERT(score.has_value(), "chosen tabu step turned infeasible");
      state.adopt_last(best_move, *score);
      note_best();
    }
  }

  island.current = state.assignment();
  island.current_score = state.current();
  result.feasible = true;
  result.score = island.best_score;
  result.assignment = island.best;
  fill_counter_deltas(result, before, context.stats());
  return result;
}

std::optional<Mapping> realize_assignment(const InstancePtr& instance,
                                          const StageAssignment& assignment,
                                          std::int64_t max_paths) {
  SF_REQUIRE(instance != nullptr, "realize_assignment requires an instance");
  return realize(instance, assignment, max_paths);
}

}  // namespace streamflow
