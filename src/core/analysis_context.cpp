#include "core/analysis_context.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "maxplus/deterministic.hpp"
#include "tpn/builder.hpp"
#include "young/pattern_analysis.hpp"

namespace streamflow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative slack applied to a screening bound before comparing it to the
/// adoption threshold: prune only when bound * (1 + kBoundSlack) <=
/// threshold. Absorbs FP rounding between the bound arithmetic and the
/// solver.
constexpr double kBoundSlack = 1e-9;

std::string component_label(std::size_t file_index, std::size_t component,
                            std::size_t u, std::size_t v) {
  std::ostringstream os;
  os << "F" << (file_index + 1) << "#" << component << " (" << u << "x" << v
     << ")";
  return os.str();
}

/// "T<stage>/P<processor>", stages counted from 1.
std::string processor_label(std::size_t stage, std::size_t p) {
  std::ostringstream os;
  os << "T" << (stage + 1) << "/P" << p;
  return os.str();
}

}  // namespace

AnalysisContext::AnalysisContext(ExponentialOptions options)
    : options_(options) {}

const Mapping& AnalysisContext::base_mapping() const {
  SF_REQUIRE(base_mapping_.has_value(), "no base mapping pinned");
  return *base_mapping_;
}

double AnalysisContext::base_score() const {
  SF_REQUIRE(base_mapping_.has_value(), "no base mapping pinned");
  return base_score_;
}

PatternStore& AnalysisContext::active_store() {
  if (store_ != nullptr) return *store_;
  if (!own_store_) own_store_ = std::make_unique<PatternStore>();
  return *own_store_;
}

double AnalysisContext::pattern_rate(const CommPattern& pattern) {
  if (pattern.homogeneous()) {
    ++stats_.closed_form;
    return pattern_flow_exponential_homogeneous(
        pattern.u, pattern.v, 1.0 / pattern.durations.front());
  }
  const PatternSignature signature = pattern_signature(pattern);
  PatternStore& store = active_store();
  // A hit is bit-identical to a solve — entries are immutable and published
  // by deterministic solves of the same signature — so hits + misses ==
  // requests whatever the store held, the cache-state invariant every
  // counter contract relies on.
  if (const std::optional<double> stored = store.lookup(signature)) {
    ++stats_.pattern_hits;
    debug_check_store_hit(pattern, *stored);
    return *stored;
  }
  const double rate =
      pattern_flow_exponential(pattern, options_.max_states).inner_flow;
  ++stats_.pattern_misses;
  store.publish(signature, rate);
  return rate;
}

void AnalysisContext::debug_check_store_hit(const CommPattern& pattern,
                                            double rate) {
#ifndef NDEBUG
  // Agreement probe: re-solve a deterministic sample of hits (the first,
  // then every seventh) and assert the stored rate is the bit-exact solve
  // of the signature. Catches a corrupted or stale entry of a shared store
  // at the first context that consumes it.
  if (stats_.pattern_hits % 7 != 1) return;
  const double reference =
      pattern_flow_exponential(pattern, options_.max_states).inner_flow;
  SF_ASSERT(reference == rate,
            "pattern-store hit diverged from a fresh solve of the same "
            "signature (stale or corrupted store entry)");
#else
  (void)pattern;
  (void)rate;
#endif
}

AnalysisContext::SolvedColumn AnalysisContext::solve_column(
    const Mapping& mapping, std::size_t file_index) {
  SolvedColumn column;
  std::vector<CommPattern> patterns = comm_patterns(mapping, file_index);
  column.g = patterns.front().g;
  column.comps.reserve(patterns.size());
  for (CommPattern& pattern : patterns) {
    SolvedComponent comp;
    comp.inner = pattern_rate(pattern);
    comp.u = pattern.u;
    comp.v = pattern.v;
    comp.g = pattern.g;
    comp.file_index = pattern.file_index;
    comp.component = pattern.component;
    comp.senders = std::move(pattern.senders);
    column.comps.push_back(std::move(comp));
  }
  return column;
}

void AnalysisContext::solve_all_columns(const Mapping& mapping,
                                        std::vector<SolvedColumn>& out) {
  const std::size_t n = mapping.num_stages();
  out.clear();
  out.reserve(n == 0 ? 0 : n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i)
    out.push_back(solve_column(mapping, i));
}

void AnalysisContext::evaluate_columns(const Mapping& mapping,
                                       std::vector<SolvedColumn>& columns,
                                       bool want_components,
                                       ExponentialThroughput& out) {
  solve_all_columns(mapping, columns);
  column_ptrs_.clear();
  for (const SolvedColumn& column : columns)
    column_ptrs_.push_back(&column);
  compose(mapping, column_ptrs_, want_components, out);
}

void AnalysisContext::compose(const Mapping& mapping,
                              const std::vector<const SolvedColumn*>& columns,
                              bool want_components,
                              ExponentialThroughput& out) {
  out.method_used = ExponentialMethod::kColumns;
  const std::size_t n = mapping.num_stages();

  // Effective personal completion rate of each processor of the current
  // stage (data sets it finishes per time unit, upstream included).
  eff_.assign(mapping.num_processors(), 0.0);

  // Equalized (in-order) cap: min over ALL components of the throughput the
  // whole system could sustain if that component were the only constraint
  // (processor p of stage i: R_i * lambda_p; communication pattern: g *
  // inner flow). Every component is an ancestor of some output row, so the
  // slowest one paces the ordered stream.
  double in_order = kInf;

  // Stage 0: saturated sources.
  for (std::size_t p : mapping.team(0)) {
    eff_[p] = 1.0 / mapping.comp_time(p);  // exponential rate = 1 / mean
    in_order = std::min(
        in_order, eff_[p] * static_cast<double>(mapping.replication(0)));
    if (want_components) {
      out.components.push_back(
          ComponentInfo{processor_label(0, p), eff_[p], eff_[p], false});
    }
  }

  for (std::size_t i = 0; i + 1 < n; ++i) {
    const SolvedColumn& column = *columns[i];
    flow_.assign(column.comps.size(), 0.0);
    for (std::size_t c = 0; c < column.comps.size(); ++c) {
      const SolvedComponent& comp = column.comps[c];
      const double inner = comp.inner;
      // Conservation + saturation: the round-robin equalizes the per-link
      // frequency, so the slowest of the u senders paces the whole pattern.
      double sender_cap = kInf;
      for (std::size_t p : comp.senders)
        sender_cap = std::min(sender_cap, eff_[p]);
      sender_cap *= static_cast<double>(comp.u);
      flow_[c] = std::min(inner, sender_cap);
      in_order = std::min(in_order, inner * static_cast<double>(comp.g));
      if (want_components) {
        out.components.push_back(ComponentInfo{
            component_label(comp.file_index, comp.component, comp.u, comp.v),
            inner, flow_[c], flow_[c] < inner});
      }
    }
    // Receivers of stage i+1 draw flow / v each.
    const std::size_t g = column.g;
    for (std::size_t b = 0; b < mapping.team(i + 1).size(); ++b) {
      const std::size_t q = mapping.team(i + 1)[b];
      const SolvedComponent& comp = column.comps[b % g];
      const double arrival = flow_[b % g] / static_cast<double>(comp.v);
      const double inner = 1.0 / mapping.comp_time(q);
      eff_[q] = std::min(inner, arrival);
      in_order = std::min(
          in_order, inner * static_cast<double>(mapping.replication(i + 1)));
      if (want_components) {
        out.components.push_back(ComponentInfo{
            processor_label(i + 1, q), inner, eff_[q], eff_[q] < inner});
      }
    }
  }

  double total = 0.0;
  for (std::size_t q : mapping.team(n - 1)) total += eff_[q];
  out.throughput = total;
  out.in_order_throughput = std::min(in_order, total);
}

ExponentialThroughput AnalysisContext::exponential(const Mapping& mapping,
                                                   ExecutionModel model) {
  if (model == ExecutionModel::kOverlap) {
    ExponentialThroughput result;
    evaluate_columns(mapping, full_columns_, /*want_components=*/true, result);
    return result;
  }
  return detail::general_ctmc_throughput(mapping, model, options_);
}

void AnalysisContext::check_objective(const Mapping& mapping,
                                      const MappingSearchOptions& options) {
  (void)mapping;
  if (options.objective == MappingObjective::kExponential) {
    SF_REQUIRE(options.model == ExecutionModel::kOverlap,
               "the exponential objective uses the column method, which "
               "applies to the Overlap model only");
  }
}

double AnalysisContext::objective_uncounted(
    const Mapping& mapping, const MappingSearchOptions& options) {
  check_objective(mapping, options);
  if (options.objective == MappingObjective::kDeterministic) {
    TpnBuildOptions build;
    build.max_rows = options.max_paths;
    return deterministic_throughput(mapping, options.model, build).throughput;
  }
  ExponentialThroughput result;
  evaluate_columns(mapping, full_columns_, /*want_components=*/false, result);
  return result.throughput;
}

double AnalysisContext::objective(const Mapping& mapping,
                                  const MappingSearchOptions& options) {
  const double score = objective_uncounted(mapping, options);
  ++stats_.evaluations;
  return score;
}

double AnalysisContext::set_base(Mapping mapping,
                                 const MappingSearchOptions& options,
                                 bool count_evaluation) {
  check_objective(mapping, options);
  for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
    const auto& team = mapping.team(i);
    SF_REQUIRE(std::is_sorted(team.begin(), team.end()) &&
                   std::adjacent_find(team.begin(), team.end()) == team.end(),
               "set_base requires teams in strictly increasing processor "
               "order (the search normal form)");
  }
  base_assignment_.assign(mapping.num_processors(), Mapping::kUnused);
  for (std::size_t p = 0; p < mapping.num_processors(); ++p)
    base_assignment_[p] = mapping.stage_of(p);

  double score;
  if (options.objective == MappingObjective::kDeterministic) {
    base_columns_.clear();
    TpnBuildOptions build;
    build.max_rows = options.max_paths;
    score = deterministic_throughput(mapping, options.model, build).throughput;
  } else {
    ExponentialThroughput result;
    evaluate_columns(mapping, base_columns_, /*want_components=*/false, result);
    score = result.throughput;
  }

  if (options.bounds != BoundPolicy::kNone) {
    base_stage_bounds_.resize(mapping.num_stages());
    for (std::size_t i = 0; i < mapping.num_stages(); ++i)
      base_stage_bounds_[i] = mapping.stage_rate_bound(i);
  } else {
    base_stage_bounds_.clear();
  }

  base_mapping_ = std::move(mapping);
  base_options_ = options;
  base_score_ = score;
  scratch_valid_ = false;
  if (count_evaluation) ++stats_.evaluations;
  return score;
}

std::optional<double> AnalysisContext::evaluate_move(const MappingMove& move) {
  const MoveProbe probe =
      probe_move(move, -std::numeric_limits<double>::infinity());
  if (probe.outcome != MoveProbe::Outcome::kScored) return std::nullopt;
  return probe.score;
}

AnalysisContext::MoveProbe AnalysisContext::probe_move(const MappingMove& move,
                                                       double threshold) {
  SF_REQUIRE(base_mapping_.has_value(),
             "probe_move requires a base mapping (call set_base first)");
  scratch_valid_ = false;

  const Mapping& base = *base_mapping_;
  const std::size_t n = base.num_stages();
  const std::size_t m = base.num_processors();
  SF_REQUIRE(move.p < m, "move processor index out of range");

  scratch_assignment_ = base_assignment_;
  std::size_t touched[2] = {Mapping::kUnused, Mapping::kUnused};
  if (move.kind == MappingMove::Kind::kMigrate) {
    SF_REQUIRE(move.target < n || move.target == Mapping::kUnused,
               "move target stage out of range");
    touched[0] = scratch_assignment_[move.p];
    touched[1] = move.target;
    scratch_assignment_[move.p] = move.target;
  } else {
    SF_REQUIRE(move.q < m && move.q != move.p,
               "swap requires two distinct processors");
    touched[0] = scratch_assignment_[move.p];
    touched[1] = scratch_assignment_[move.q];
    std::swap(scratch_assignment_[move.p], scratch_assignment_[move.q]);
  }

  // Re-derive the teams in the search normal form (increasing processor id).
  scratch_teams_.resize(n);
  for (auto& team : scratch_teams_) team.clear();
  for (std::size_t p = 0; p < m; ++p) {
    if (scratch_assignment_[p] != Mapping::kUnused)
      scratch_teams_[scratch_assignment_[p]].push_back(p);
  }
  for (const auto& team : scratch_teams_) {
    if (team.empty()) return MoveProbe{};
  }

  std::optional<Mapping> candidate;
  try {
    // Shares the base's immutable instance; only the links adjacent to a
    // touched team are revalidated (the base covers the rest).
    candidate.emplace(
        Mapping::with_teams(base, scratch_teams_, {touched[0], touched[1]}));
  } catch (const InvalidArgument&) {
    // e.g. a used link has no bandwidth on this platform
    return MoveProbe{};
  }
  if (candidate->num_paths() > base_options_.max_paths) return MoveProbe{};

  if (base_options_.bounds != BoundPolicy::kNone) {
    // Refresh the touched entries of the cached per-stage tier-1 bound on
    // the candidate (S_i depends on teams i-1 and i only, so a move
    // touching stage t invalidates S_t and S_{t+1}); this runs even for an
    // unscreened threshold so a commit can adopt the refreshed vector.
    scratch_stage_bounds_ = base_stage_bounds_;
    for (const std::size_t t : {touched[0], touched[1]}) {
      if (t == Mapping::kUnused) continue;
      scratch_stage_bounds_[t] = candidate->stage_rate_bound(t);
      if (t + 1 < n)
        scratch_stage_bounds_[t + 1] = candidate->stage_rate_bound(t + 1);
    }
    const double slack = 1.0 + kBoundSlack;
    double tier1 = kInf;
    for (const double s : scratch_stage_bounds_) tier1 = std::min(tier1, s);
    if (tier1 * slack <= threshold) {
      ++stats_.evaluations;
      ++stats_.move_evaluations;
      ++stats_.moves_pruned_mct;
      debug_check_pruned(*candidate, threshold);
      return MoveProbe{MoveProbe::Outcome::kPruned, 0.0, tier1};
    }
    if (base_options_.bounds == BoundPolicy::kMctMaxplus &&
        base_options_.objective == MappingObjective::kExponential &&
        threshold > 0.0) {
      // Tier 2: the max-plus deterministic analysis (Theorem 7:
      // rho_exp <= rho_det). Skipped for the deterministic objective,
      // where it would BE the solve.
      TpnBuildOptions build;
      build.max_rows = base_options_.max_paths;
      const double tier2 =
          deterministic_throughput(*candidate, base_options_.model, build)
              .throughput;
      if (tier2 * slack <= threshold) {
        ++stats_.evaluations;
        ++stats_.move_evaluations;
        ++stats_.moves_pruned_maxplus;
        debug_check_pruned(*candidate, threshold);
        return MoveProbe{MoveProbe::Outcome::kPruned, 0.0, tier2};
      }
    }
  }

  double score;
  scratch_touched_.assign(n == 0 ? 0 : n - 1, 0);
  if (base_options_.objective == MappingObjective::kDeterministic) {
    TpnBuildOptions build;
    build.max_rows = base_options_.max_paths;
    score = deterministic_throughput(*candidate, base_options_.model, build)
                .throughput;
  } else {
    scratch_columns_.resize(n == 0 ? 0 : n - 1);
    column_ptrs_.clear();
    for (std::size_t c = 0; c + 1 < n; ++c) {
      const bool is_touched = (touched[0] != Mapping::kUnused &&
                               (touched[0] == c || touched[0] == c + 1)) ||
                              (touched[1] != Mapping::kUnused &&
                               (touched[1] == c || touched[1] == c + 1));
      if (is_touched) {
        scratch_columns_[c] = solve_column(*candidate, c);
        scratch_touched_[c] = 1;
        column_ptrs_.push_back(&scratch_columns_[c]);
        ++stats_.columns_recomputed;
      } else {
        column_ptrs_.push_back(&base_columns_[c]);
        ++stats_.columns_reused;
      }
    }
    ExponentialThroughput result;
    compose(*candidate, column_ptrs_, /*want_components=*/false, result);
    score = result.throughput;
  }
  ++stats_.evaluations;
  ++stats_.move_evaluations;
  ++stats_.moves_solved;

#ifndef NDEBUG
  {
    // The incremental path must be bit-identical to a cold full evaluation.
    AnalysisContext fresh(options_);
    const double reference = fresh.objective_uncounted(*candidate, base_options_);
    SF_ASSERT(score == reference,
              "incremental evaluate_move diverged from the non-incremental "
              "evaluation path");
  }
#endif

  scratch_move_ = move;
  scratch_mapping_ = std::move(candidate);
  scratch_score_ = score;
  scratch_valid_ = true;
  return MoveProbe{MoveProbe::Outcome::kScored, score, 0.0};
}

void AnalysisContext::debug_check_pruned(const Mapping& candidate,
                                         double threshold) {
#ifndef NDEBUG
  // Re-solve a deterministic sample of pruned candidates and assert the
  // exact property the bit-identical-trajectory contract needs: a pruned
  // candidate's true score does not exceed the caller's threshold.
  if ((stats_.moves_pruned_mct + stats_.moves_pruned_maxplus) % 7 != 1) return;
  AnalysisContext fresh(options_);
  const double reference = fresh.objective_uncounted(candidate, base_options_);
  SF_ASSERT(reference <= threshold,
            "bound screen pruned a candidate that beats the threshold "
            "(inadmissible bound)");
#else
  (void)candidate;
  (void)threshold;
#endif
}

double AnalysisContext::commit_move(const MappingMove& move) {
  SF_REQUIRE(scratch_valid_ && move == scratch_move_,
             "commit_move must immediately follow a feasible evaluate_move "
             "of the same move");
  base_mapping_ = std::move(scratch_mapping_);
  base_assignment_.swap(scratch_assignment_);
  if (base_options_.bounds != BoundPolicy::kNone)
    base_stage_bounds_.swap(scratch_stage_bounds_);
  if (base_options_.objective == MappingObjective::kExponential) {
    for (std::size_t c = 0; c < scratch_touched_.size(); ++c) {
      if (scratch_touched_[c]) base_columns_[c] = std::move(scratch_columns_[c]);
    }
  }
  base_score_ = scratch_score_;
  scratch_valid_ = false;
  scratch_mapping_.reset();
  return base_score_;
}

}  // namespace streamflow
