#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analysis_context.hpp"
#include "core/analyzer.hpp"
#include "model/random_instance.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

void expect_same_result(const MappingSearchResult& a,
                        const MappingSearchResult& b) {
  ASSERT_EQ(a.mapping.num_stages(), b.mapping.num_stages());
  for (std::size_t i = 0; i < a.mapping.num_stages(); ++i) {
    EXPECT_EQ(a.mapping.team(i), b.mapping.team(i));
  }
  EXPECT_EQ(a.throughput, b.throughput);  // bitwise
  EXPECT_EQ(a.greedy_throughput, b.greedy_throughput);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Heuristics, TrivialInstanceAssignsEverything) {
  // One processor per stage: the only feasible shape.
  Application app({1.0, 2.0}, {1.0});
  Platform platform = Platform::fully_connected({1.0, 2.0}, 10.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kDeterministic;
  const auto result = optimize_mapping(app, platform, options);
  EXPECT_EQ(result.mapping.replication(0), 1u);
  EXPECT_EQ(result.mapping.replication(1), 1u);
  // The heavy stage (T2, w=2) should get the fast processor (P1, s=2):
  // throughput 1 instead of 1/4... times comm constraints.
  EXPECT_EQ(result.mapping.team(1)[0], 1u);
  EXPECT_GT(result.throughput, 0.0);
}

TEST(Heuristics, ReplicatesTheBottleneckStage) {
  // A heavy middle stage and six identical processors: the optimizer must
  // replicate the middle stage on most of them.
  Application app({1.0, 12.0, 1.0}, {0.1, 0.1});
  Platform platform = Platform::fully_connected(
      std::vector<double>(6, 1.0), 100.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = 2;
  const auto result = optimize_mapping(app, platform, options);
  EXPECT_GE(result.mapping.replication(1), 3u);
  EXPECT_GE(result.throughput, result.greedy_throughput * 0.999);
}

TEST(Heuristics, LeavesStragglersOutWhenAllowed) {
  // A crippled processor (1000x slower) would pace a middle replicated
  // stage; with allow_unused_processors the search should bench it.
  Application app({1.0, 4.0, 1.0}, {0.1, 0.1});
  Platform platform = Platform::fully_connected(
      {10.0, 2.0, 2.0, 0.002, 10.0}, 100.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kDeterministic;
  options.restarts = 3;
  const auto result = optimize_mapping(app, platform, options);
  EXPECT_EQ(result.mapping.stage_of(3), Mapping::kUnused);
}

TEST(Heuristics, BeatsOrMatchesRandomMappings) {
  // The searched mapping must dominate a sample of random valid mappings
  // of the same instance.
  Prng prng(99);
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = 3;
  const auto result = optimize_mapping(app, platform, options);

  RandomInstanceOptions random_options;
  random_options.num_stages = 3;
  random_options.num_processors = 7;
  // Random instances redraw speeds, so instead randomize team shapes on OUR
  // platform: sample partitions via random_instance's composition logic by
  // shuffling processors into teams.
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::size_t> procs{0, 1, 2, 3, 4, 5, 6};
    for (std::size_t i = procs.size(); i > 1; --i)
      std::swap(procs[i - 1], procs[prng.uniform_index(i)]);
    const std::size_t cut1 = 1 + prng.uniform_index(5);
    const std::size_t cut2 = cut1 + 1 + prng.uniform_index(7 - cut1 - 1);
    std::vector<std::vector<std::size_t>> teams(3);
    teams[0].assign(procs.begin(), procs.begin() + static_cast<long>(cut1));
    teams[1].assign(procs.begin() + static_cast<long>(cut1),
                    procs.begin() + static_cast<long>(cut2));
    teams[2].assign(procs.begin() + static_cast<long>(cut2), procs.end());
    const Mapping candidate(app, platform, teams);
    const double rho =
        exponential_throughput(candidate, ExecutionModel::kOverlap).throughput;
    EXPECT_LE(rho, result.throughput * (1.0 + 1e-9))
        << candidate.to_string();
  }
}

TEST(Heuristics, DeterministicObjectiveWorksForStrict) {
  Application app({1.0, 6.0}, {0.5});
  Platform platform = Platform::fully_connected({1.0, 1.0, 1.0, 1.0}, 5.0);
  MappingSearchOptions options;
  options.model = ExecutionModel::kStrict;
  options.objective = MappingObjective::kDeterministic;
  options.restarts = 2;
  const auto result = optimize_mapping(app, platform, options);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GE(result.mapping.replication(1), 2u);  // heavy stage replicated
}

TEST(Heuristics, Validation) {
  Application app({1.0, 1.0, 1.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected({1.0, 1.0}, 1.0);
  EXPECT_THROW(optimize_mapping(app, platform), InvalidArgument);

  Application app2({1.0}, {});
  Platform platform2({1.0});
  MappingSearchOptions bad;
  bad.model = ExecutionModel::kStrict;
  bad.objective = MappingObjective::kExponential;
  EXPECT_THROW(optimize_mapping(app2, platform2, bad), InvalidArgument);
}

TEST(Heuristics, RestartsZeroMatchesRestartsOne) {
  // restarts = 0 must still run the greedy start plus one local-search
  // pass: it is equivalent to restarts = 1, not an empty result.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.seed = 11;
  options.restarts = 0;
  const auto zero = optimize_mapping(app, platform, options);
  options.restarts = 1;
  const auto one = optimize_mapping(app, platform, options);
  expect_same_result(zero, one);
  EXPECT_GT(zero.throughput, 0.0);
  EXPECT_GE(zero.throughput, zero.greedy_throughput);
  EXPECT_GT(zero.evaluations, 0u);
}

TEST(Heuristics, EvaluationAccountingIsExact) {
  // With no local-search sweeps and forced placement, the count is fully
  // determined: 1 evaluation of the initial greedy seed, then for each of
  // the m - n extra processors n candidate probes plus one re-probe of the
  // chosen placement. Every greedy-construction scoring call is tallied.
  Application app({1.0, 2.0}, {0.5});
  Platform platform = Platform::fully_connected({2.0, 1.0, 1.0, 1.0, 1.0},
                                                10.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.allow_unused_processors = false;
  options.max_sweeps = 0;
  options.restarts = 1;
  const auto result = optimize_mapping(app, platform, options);
  const std::size_t m = 5, n = 2;
  EXPECT_EQ(result.evaluations, 1 + (m - n) * (n + 1));
  // No sweeps ran: the result is exactly the greedy construction.
  EXPECT_EQ(result.throughput, result.greedy_throughput);
}

TEST(Heuristics, WarmCacheDoesNotChangeTheResult) {
  // The search trajectory must be independent of the cache state: a shared
  // context warmed by a previous identical search returns the identical
  // mapping, scores, and evaluation count — with all pattern solves served
  // from the cache.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  Prng prng(3);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = p + 1; q < 7; ++q) {
      platform.set_bandwidth(p, q, 2.0 + 3.0 * prng.uniform01());
    }
  }
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = 3;
  options.seed = 42;

  const auto cold = optimize_mapping(app, platform, options);
  AnalysisContext shared;
  const auto first = optimize_mapping(app, platform, options, shared);
  const auto warm = optimize_mapping(app, platform, options, shared);

  expect_same_result(cold, first);
  expect_same_result(cold, warm);
  EXPECT_GT(first.pattern_cache_misses, 0u);
  EXPECT_EQ(warm.pattern_cache_misses, 0u);  // fully warm
  EXPECT_GT(warm.pattern_cache_hits, 0u);
}

TEST(Heuristics, InstanceIsSharedNotCopiedAcrossAWholeSearch) {
  // The tentpole contract of the instance-sharing refactor: a search
  // constructs thousands of candidate mappings but never duplicates the
  // Application/Platform payload. shared_ptr use counts make that
  // observable — if any step copied the instance, the returned mapping
  // would reference a different allocation.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  const InstancePtr instance = make_instance(std::move(app),
                                             std::move(platform));
  ASSERT_EQ(instance.use_count(), 1);

  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = 3;

  {
    // Throwaway-context overload: after it returns, the only handles left
    // are ours and the result mapping's.
    const auto result = optimize_mapping(instance, options);
    EXPECT_EQ(result.mapping.instance().get(), instance.get());
    EXPECT_EQ(instance.use_count(), 2);
  }
  EXPECT_EQ(instance.use_count(), 1);

  // Shared-context overload: exactly two more handles live inside the
  // context — the pinned base mapping and the pending scratch candidate of
  // the last (uncommitted) evaluate_move probe. Still the same allocation:
  // handles are O(1) copies of the pointer, never of the payload.
  AnalysisContext context;
  const auto result = optimize_mapping(instance, options, context);
  EXPECT_EQ(result.mapping.instance().get(), instance.get());
  EXPECT_EQ(context.base_mapping().instance().get(), instance.get());
  EXPECT_EQ(instance.use_count(), 4);
  context.clear();
  EXPECT_EQ(instance.use_count(), 2);  // ours + the result mapping's
}

TEST(Heuristics, PinnedScoresMatchThePreSharingImplementation) {
  // Regression pin for the by-value -> shared-instance refactor: these
  // exact values (bitwise, printf %.17g) were produced by the pre-refactor
  // library built from the PR 3 tree on this instance, for both
  // objectives. Searches must stay byte-for-byte reproducible across the
  // candidate-construction change.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  Prng prng(3);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = p + 1; q < 7; ++q) {
      platform.set_bandwidth(p, q, 2.0 + 3.0 * prng.uniform01());
    }
  }
  MappingSearchOptions options;
  options.restarts = 3;
  options.seed = 42;
  for (const MappingObjective objective :
       {MappingObjective::kExponential, MappingObjective::kDeterministic}) {
    options.objective = objective;
    const auto result = optimize_mapping(app, platform, options);
    EXPECT_EQ(result.throughput, 0.65000000000000002);
    EXPECT_EQ(result.greedy_throughput, 0.3125);
    EXPECT_EQ(result.evaluations, 238u);
    EXPECT_EQ(result.mapping.to_string(),
              "Mapping[m=3 paths; T1->{P1} T2->{P2,P4,P5} T3->{P0,P3,P6}]");
  }
}

TEST(Heuristics, ReportsCacheStatsPerObjective) {
  Application app({1.0, 12.0, 1.0}, {0.1, 0.1});
  Platform platform = Platform::fully_connected(
      std::vector<double>(6, 1.0), 100.0);
  MappingSearchOptions options;
  options.restarts = 2;
  options.objective = MappingObjective::kDeterministic;
  const auto det = optimize_mapping(app, platform, options);
  // The deterministic objective never touches the pattern cache.
  EXPECT_EQ(det.pattern_cache_hits, 0u);
  EXPECT_EQ(det.pattern_cache_misses, 0u);
  EXPECT_GT(det.evaluations, 0u);
}

// ---- Bound screens (BoundPolicy) -------------------------------------------

TEST(Heuristics, StageRateBoundIsAdmissibleOnRandomInstances) {
  // The tier-1 screen's bound — min over stages of stage_rate_bound — must
  // dominate BOTH search objectives on arbitrary instances; otherwise a
  // screen could prune a winning move.
  RandomInstanceOptions random;
  random.num_stages = 3;
  random.num_processors = 6;
  random.max_paths = 64;
  Prng prng(2025);
  for (int trial = 0; trial < 12; ++trial) {
    const Mapping mapping = random_instance(random, prng);
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
      bound = std::min(bound, mapping.stage_rate_bound(i));
    }
    const double rho_exp =
        exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;
    const double rho_det =
        deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
    EXPECT_GE(bound * (1.0 + 1e-9), rho_exp) << mapping.to_string();
    EXPECT_GE(bound * (1.0 + 1e-9), rho_det) << mapping.to_string();
  }
}

TEST(Heuristics, BoundScreenNeverPrunesAnImprovingMove) {
  // Exhaustive probe-level admissibility: for every feasible move of a
  // random base, take the exact score from an unscreened probe, then
  // re-probe with a threshold just below that score. An admissible screen
  // must come back kScored — bit-identically — never kPruned.
  RandomInstanceOptions random;
  random.num_stages = 3;
  random.num_processors = 6;
  random.max_paths = 64;
  Prng prng(77);
  for (const BoundPolicy policy :
       {BoundPolicy::kMct, BoundPolicy::kMctMaxplus}) {
    for (int trial = 0; trial < 3; ++trial) {
      // set_base requires the search normal form (teams in increasing
      // processor order); the random generator makes no such promise.
      const Mapping raw = random_instance(random, prng);
      std::vector<std::vector<std::size_t>> teams;
      for (std::size_t i = 0; i < raw.num_stages(); ++i) {
        teams.push_back(raw.team(i));
        std::sort(teams.back().begin(), teams.back().end());
      }
      const Mapping base(raw.instance(), std::move(teams));
      MappingSearchOptions options;
      options.objective = MappingObjective::kExponential;
      options.bounds = policy;
      options.max_paths = random.max_paths;
      AnalysisContext context;
      context.set_base(base, options);
      const std::size_t n = base.num_stages();
      std::vector<MappingMove> moves;
      for (std::size_t p = 0; p < base.num_processors(); ++p) {
        for (std::size_t i = 0; i <= n; ++i) {
          const std::size_t target = i == n ? Mapping::kUnused : i;
          if (target == base.stage_of(p)) continue;
          moves.push_back(MappingMove::migrate(p, target));
        }
        for (std::size_t q = p + 1; q < base.num_processors(); ++q) {
          if (base.stage_of(p) == base.stage_of(q)) continue;
          moves.push_back(MappingMove::swap(p, q));
        }
      }
      for (const MappingMove& move : moves) {
        const AnalysisContext::MoveProbe free = context.probe_move(
            move, -std::numeric_limits<double>::infinity());
        if (free.outcome != AnalysisContext::MoveProbe::Outcome::kScored)
          continue;
        const AnalysisContext::MoveProbe tight =
            context.probe_move(move, free.score * (1.0 - 1e-6));
        EXPECT_EQ(tight.outcome,
                  AnalysisContext::MoveProbe::Outcome::kScored)
            << base.to_string() << " score " << free.score;
        EXPECT_EQ(tight.score, free.score);
      }
    }
  }
}

TEST(Heuristics, ScreenedSearchIsBitIdenticalWithExactAccounting) {
  // Whole-search invariant on the pinned instance: both screens return the
  // PR 5 pinned values bit-for-bit, and the probe accounting is exact —
  // every probe the unscreened search solved is either solved or pruned
  // under a screen, never lost.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  Prng prng(3);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = p + 1; q < 7; ++q) {
      platform.set_bandwidth(p, q, 2.0 + 3.0 * prng.uniform01());
    }
  }
  MappingSearchOptions options;
  options.restarts = 3;
  options.seed = 42;
  for (const MappingObjective objective :
       {MappingObjective::kExponential, MappingObjective::kDeterministic}) {
    options.objective = objective;
    options.bounds = BoundPolicy::kNone;
    const auto reference = optimize_mapping(app, platform, options);
    EXPECT_EQ(reference.throughput, 0.65000000000000002);
    EXPECT_EQ(reference.moves_pruned_mct, 0u);
    EXPECT_EQ(reference.moves_pruned_maxplus, 0u);
    EXPECT_GT(reference.moves_solved, 0u);
    for (const BoundPolicy policy :
         {BoundPolicy::kMct, BoundPolicy::kMctMaxplus}) {
      options.bounds = policy;
      const auto screened = optimize_mapping(app, platform, options);
      expect_same_result(reference, screened);
      EXPECT_EQ(screened.mapping.to_string(), reference.mapping.to_string());
      EXPECT_EQ(screened.moves_solved + screened.moves_pruned_mct +
                    screened.moves_pruned_maxplus,
                reference.moves_solved)
          << "accounting identity broken under a screen";
      // The tier-2 escalation only arms for the exponential objective.
      if (objective == MappingObjective::kDeterministic) {
        EXPECT_EQ(screened.moves_pruned_maxplus, 0u);
      }
    }
  }
}

TEST(Heuristics, RespectsMaxPathsConstraint) {
  Application app({1.0, 1.0, 1.0}, {0.1, 0.1});
  Platform platform = Platform::fully_connected(
      std::vector<double>(12, 1.0), 100.0);
  MappingSearchOptions options;
  options.objective = MappingObjective::kDeterministic;
  options.max_paths = 12;
  options.restarts = 2;
  const auto result = optimize_mapping(app, platform, options);
  EXPECT_LE(result.mapping.num_paths(), 12);
}

}  // namespace
}  // namespace streamflow
