// AnalysisContext invariants: cached and incremental evaluations are
// bit-identical to the throwaway path, evaluate_move equals full
// re-evaluation for every move kind (feasible and infeasible alike), and
// the cache statistics are exact.
#include "core/analysis_context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "young/pattern_analysis.hpp"

namespace streamflow {
namespace {

/// Fully heterogeneous platform: distinct speeds and per-link bandwidths,
/// so every multi-link communication pattern needs a CTMC solve. The links
/// listed in `missing` are left unset (mappings using them are invalid).
Platform heterogeneous_platform(
    std::vector<double> speeds,
    const std::vector<std::pair<std::size_t, std::size_t>>& missing = {},
    std::uint64_t seed = 7) {
  const std::size_t m = speeds.size();
  Platform platform{std::move(speeds)};
  Prng prng(seed);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = p + 1; q < m; ++q) {
      const double bandwidth = 1.0 + 2.0 * prng.uniform01();
      if (std::find(missing.begin(), missing.end(), std::make_pair(p, q)) ==
          missing.end()) {
        platform.set_bandwidth(p, q, bandwidth);
      }
    }
  }
  return platform;
}

/// 4-stage pipeline with replications (2, 3, 1, 3) on 9 processors; the
/// platform lacks the (0, 7) link, so moves that pair them are infeasible.
Mapping base_instance() {
  Application app({2.0, 6.0, 4.0, 1.0}, {1.0, 3.0, 1.0});
  Platform platform = heterogeneous_platform(
      {2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5, 0.9, 1.4}, {{0, 7}});
  return Mapping(make_instance(app, platform),
                 {{0, 1}, {2, 3, 4}, {5}, {6, 7, 8}});
}

/// Reference implementation of base (+) move -> objective: rebuild the
/// assignment, re-derive teams, run the full constructor validation on a
/// fresh copy of the instance, and score it with the free analysis
/// functions.
std::optional<double> full_reevaluation(const Mapping& base,
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
    if (options.objective == MappingObjective::kExponential) {
      return exponential_throughput(mapping, options.model).throughput;
    }
    TpnBuildOptions build;
    build.max_rows = options.max_paths;
    return deterministic_throughput(mapping, options.model, build).throughput;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

TEST(AnalysisContext, MatchesFreeFunctionBitwiseColdAndWarm) {
  const Mapping mapping = base_instance();
  const ExponentialThroughput direct =
      exponential_throughput(mapping, ExecutionModel::kOverlap);

  AnalysisContext context;
  const ExponentialThroughput cold =
      context.exponential(mapping, ExecutionModel::kOverlap);
  const ExponentialThroughput warm =
      context.exponential(mapping, ExecutionModel::kOverlap);

  for (const ExponentialThroughput* r : {&cold, &warm}) {
    EXPECT_EQ(r->throughput, direct.throughput);
    EXPECT_EQ(r->in_order_throughput, direct.in_order_throughput);
    ASSERT_EQ(r->components.size(), direct.components.size());
    for (std::size_t c = 0; c < direct.components.size(); ++c) {
      EXPECT_EQ(r->components[c].label, direct.components[c].label);
      EXPECT_EQ(r->components[c].inner, direct.components[c].inner);
      EXPECT_EQ(r->components[c].effective, direct.components[c].effective);
      EXPECT_EQ(r->components[c].bottleneck, direct.components[c].bottleneck);
    }
  }
  // The warm pass answered every heterogeneous solve from the cache.
  EXPECT_GT(context.stats().pattern_misses, 0u);
  EXPECT_EQ(context.stats().pattern_hits, context.stats().pattern_misses);
}

TEST(AnalysisContext, RandomInstancesBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Prng prng(seed);
    RandomInstanceOptions options;
    options.num_stages = 4;
    options.num_processors = 9;
    options.max_paths = 64;
    const Mapping mapping = random_instance(options, prng);
    AnalysisContext context;
    const auto direct = exponential_throughput(mapping, ExecutionModel::kOverlap);
    const auto cold = context.exponential(mapping);
    const auto warm = context.exponential(mapping);
    EXPECT_EQ(cold.throughput, direct.throughput) << "seed " << seed;
    EXPECT_EQ(warm.throughput, direct.throughput) << "seed " << seed;
    EXPECT_EQ(warm.in_order_throughput, direct.in_order_throughput);
  }
}

TEST(AnalysisContext, PatternRateBitIdenticalToDirectSolve) {
  const Mapping mapping = base_instance();
  AnalysisContext context;
  for (std::size_t file = 0; file + 1 < mapping.num_stages(); ++file) {
    for (const CommPattern& pattern : comm_patterns(mapping, file)) {
      const double direct =
          pattern.homogeneous()
              ? pattern_flow_exponential_homogeneous(
                    pattern.u, pattern.v, 1.0 / pattern.durations.front())
              : pattern_flow_exponential(pattern).inner_flow;
      EXPECT_EQ(context.pattern_rate(pattern), direct);
      EXPECT_EQ(context.pattern_rate(pattern), direct);  // warm hit
    }
  }
}

TEST(AnalysisContext, EvaluateMoveMatchesFullForEveryMoveKind) {
  const Mapping base = base_instance();
  const std::size_t n = base.num_stages();
  const std::size_t m = base.num_processors();

  for (const MappingObjective objective :
       {MappingObjective::kExponential, MappingObjective::kDeterministic}) {
    MappingSearchOptions options;
    options.objective = objective;
    AnalysisContext context;
    const double base_score = context.set_base(base, options);

    std::size_t feasible = 0;
    std::size_t infeasible = 0;
    auto check = [&](const MappingMove& move) {
      const auto incremental = context.evaluate_move(move);
      const auto full = full_reevaluation(base, move, options);
      ASSERT_EQ(incremental.has_value(), full.has_value());
      if (incremental) {
        EXPECT_EQ(*incremental, *full);
        ++feasible;
      } else {
        ++infeasible;
      }
      // Probing must not disturb the base.
      EXPECT_EQ(context.base_score(), base_score);
    };

    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t i = 0; i <= n; ++i) {
        const std::size_t target = i == n ? Mapping::kUnused : i;
        if (target == base.stage_of(p)) continue;
        check(MappingMove::migrate(p, target));
      }
    }
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        if (base.stage_of(p) == base.stage_of(q)) continue;
        check(MappingMove::swap(p, q));
      }
    }
    // The instance exercises both outcomes: singleton-team moves and the
    // missing (0, 7) link make some neighbours infeasible.
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
  }
}

TEST(AnalysisContext, MaxPathsRejectionMatchesRealize) {
  Application app({1.0, 2.0, 1.0}, {0.5, 0.5});
  Platform platform = heterogeneous_platform({1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  const Mapping base(make_instance(app, platform),
                     {{0}, {1, 2, 3}, {4, 5}});  // lcm = 6
  MappingSearchOptions options;
  options.max_paths = 6;
  AnalysisContext context;
  context.set_base(base, options);
  // Migrating P5 into the middle team gives replications (1, 4, 1): lcm 4,
  // within the cap of 6.
  EXPECT_TRUE(context.evaluate_move(MappingMove::migrate(5, 1)).has_value());
  // Shrink the cap: the same move (lcm 4) and any move keeping the base
  // shape (lcm 6) are now rejected, while benching P5 (lcm 3) stays
  // feasible. set_base itself never applies the cap; only moves do.
  options.max_paths = 3;
  context.set_base(base, options);
  EXPECT_FALSE(context.evaluate_move(MappingMove::migrate(5, 1)).has_value());
  EXPECT_FALSE(context.evaluate_move(MappingMove::swap(0, 1)).has_value());
  EXPECT_TRUE(
      context.evaluate_move(MappingMove::migrate(5, Mapping::kUnused))
          .has_value());
}

TEST(AnalysisContext, CommitMoveRebasesOntoTheEvaluatedCandidate) {
  const Mapping base = base_instance();
  MappingSearchOptions options;
  AnalysisContext context;
  context.set_base(base, options);

  const MappingMove move = MappingMove::swap(2, 5);
  const auto probed = context.evaluate_move(move);
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(context.commit_move(move), *probed);
  EXPECT_EQ(context.base_score(), *probed);
  EXPECT_EQ(context.base_mapping().stage_of(2), base.stage_of(5));
  EXPECT_EQ(context.base_mapping().stage_of(5), base.stage_of(2));

  // Probes against the new base agree with full re-evaluation again.
  const MappingMove next = MappingMove::migrate(8, 1);
  const auto incremental = context.evaluate_move(next);
  const auto full = full_reevaluation(context.base_mapping(), next, options);
  ASSERT_EQ(incremental.has_value(), full.has_value());
  if (incremental) {
    EXPECT_EQ(*incremental, *full);
  }

  // Committing without (or after) a matching probe is a contract violation.
  EXPECT_THROW(context.commit_move(MappingMove::swap(0, 3)), InvalidArgument);
}

TEST(AnalysisContext, CacheStatsAreExact) {
  Application app({1.0, 2.0}, {1.0});
  Platform het = heterogeneous_platform({1.0, 1.0, 1.0, 1.0, 1.0});
  const Mapping mapping(make_instance(app, het),
                        {{0, 1}, {2, 3, 4}});  // one 2x3 pattern

  // No store attached: the context reads its own.
  AnalysisContext context;
  context.exponential(mapping);
  EXPECT_EQ(context.stats().pattern_misses, 1u);
  EXPECT_EQ(context.stats().pattern_hits, 0u);
  EXPECT_EQ(context.stats().closed_form, 0u);

  // The repeated signature is a hit in the context's own store.
  context.exponential(mapping);
  EXPECT_EQ(context.stats().pattern_misses, 1u);
  EXPECT_EQ(context.stats().pattern_hits, 1u);

  // A homogeneous network goes through Theorem 4's closed form: no cache.
  Platform uniform = Platform::fully_connected({1.0, 1.0, 1.0, 1.0, 1.0}, 2.0);
  const Mapping homogeneous(make_instance(app, uniform), {{0, 1}, {2, 3, 4}});
  AnalysisContext closed;
  closed.exponential(homogeneous);
  closed.exponential(homogeneous);
  EXPECT_EQ(closed.stats().closed_form, 2u);
  EXPECT_EQ(closed.stats().pattern_misses, 0u);
  EXPECT_EQ(closed.stats().pattern_hits, 0u);

  // A fresh context starts with zeroed counters and an empty own store, so
  // the pattern is solved again.
  AnalysisContext fresh;
  EXPECT_EQ(fresh.stats().pattern_misses, 0u);
  EXPECT_EQ(fresh.stats().pattern_hits, 0u);
  fresh.exponential(mapping);
  EXPECT_EQ(fresh.stats().pattern_misses, 1u);
  EXPECT_EQ(fresh.stats().pattern_hits, 0u);
}

TEST(AnalysisContext, ColumnReuseCountsAreExact) {
  // Six singleton stages: a swap of P0/P1 touches stages 0 and 1, so
  // columns 0 and 1 are re-solved and columns 2..4 are reused.
  Application app({1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                  {1.0, 1.0, 1.0, 1.0, 1.0});
  Platform platform =
      heterogeneous_platform({2.0, 1.0, 1.5, 1.2, 0.8, 1.1});
  const Mapping base(make_instance(app, platform),
                     {{0}, {1}, {2}, {3}, {4}, {5}});

  MappingSearchOptions options;
  AnalysisContext context;
  context.set_base(base, options);
  const AnalysisCacheStats before = context.stats();
  ASSERT_TRUE(context.evaluate_move(MappingMove::swap(0, 1)).has_value());
  const AnalysisCacheStats& after = context.stats();
  EXPECT_EQ(after.columns_recomputed - before.columns_recomputed, 2u);
  EXPECT_EQ(after.columns_reused - before.columns_reused, 3u);
  EXPECT_EQ(after.move_evaluations - before.move_evaluations, 1u);
  EXPECT_EQ(after.evaluations - before.evaluations, 1u);
}

TEST(AnalysisContext, CacheSharesPatternsAcrossMappings) {
  // Two mappings of the same instance sharing the stage-0 column: the
  // second evaluation hits the cached (0, 1) pattern solve.
  Application app({2.0, 6.0, 1.0}, {1.0, 1.0});
  Platform platform =
      heterogeneous_platform({2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5});
  const Mapping first(make_instance(app, platform), {{0, 1}, {2, 3, 4}, {5}});
  const Mapping second(make_instance(app, platform), {{0, 1}, {2, 3, 4}, {6}});

  AnalysisContext context;
  context.exponential(first);
  const std::size_t misses_after_first = context.stats().pattern_misses;
  context.exponential(second);
  EXPECT_GT(context.stats().pattern_hits, 0u);  // the shared 2x3 pattern
  // Only genuinely new patterns were solved for the second mapping.
  EXPECT_GE(context.stats().pattern_misses, misses_after_first);
}

TEST(AnalysisContext, EvaluateAndCommitShareTheBaseInstance) {
  // Candidate mappings derive from the base via Mapping::with_teams: the
  // instance allocation is shared through probe and commit alike, never
  // copied.
  const Mapping base = base_instance();
  const Instance* allocation = base.instance().get();
  MappingSearchOptions options;
  AnalysisContext context;
  context.set_base(base, options);
  EXPECT_EQ(context.base_mapping().instance().get(), allocation);

  const MappingMove move = MappingMove::swap(2, 5);
  ASSERT_TRUE(context.evaluate_move(move).has_value());
  context.commit_move(move);
  EXPECT_EQ(context.base_mapping().instance().get(), allocation);
}

TEST(AnalysisContext, SetBaseRequiresSortedTeams) {
  Application app({1.0, 1.0}, {1.0});
  Platform platform = Platform::fully_connected({1.0, 1.0, 1.0}, 1.0);
  const Mapping unsorted(make_instance(app, platform), {{0}, {2, 1}});
  MappingSearchOptions options;
  AnalysisContext context;
  EXPECT_THROW(context.set_base(unsorted, options), InvalidArgument);
  EXPECT_THROW(context.evaluate_move(MappingMove::migrate(0, 1)),
               InvalidArgument);  // no base pinned
}

}  // namespace
}  // namespace streamflow
