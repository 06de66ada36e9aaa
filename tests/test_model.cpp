#include <gtest/gtest.h>

#include "model/application.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/timing.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

TEST(Application, ValidatesShape) {
  EXPECT_NO_THROW(Application({1.0, 2.0}, {3.0}));
  EXPECT_THROW(Application({}, {}), InvalidArgument);
  EXPECT_THROW(Application({1.0, 2.0}, {}), InvalidArgument);
  EXPECT_THROW(Application({1.0, 2.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(Application({0.0}, {}), InvalidArgument);
  EXPECT_THROW(Application({1.0, 1.0}, {-1.0}), InvalidArgument);
}

TEST(Application, Accessors) {
  Application app({2.0, 4.0, 8.0}, {16.0, 32.0});
  EXPECT_EQ(app.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(app.work(1), 4.0);
  EXPECT_DOUBLE_EQ(app.file_size(1), 32.0);
  EXPECT_THROW(app.work(3), InvalidArgument);
  EXPECT_THROW(app.file_size(2), InvalidArgument);
  EXPECT_NE(app.to_string().find("3 stages"), std::string::npos);
}

TEST(Platform, FullyConnectedAndStar) {
  Platform full = Platform::fully_connected({1.0, 2.0, 3.0}, 10.0);
  EXPECT_DOUBLE_EQ(full.bandwidth(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(full.bandwidth(1, 2), 10.0);

  Platform star = Platform::star({1.0, 1.0, 1.0}, {10.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(star.bandwidth(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(star.bandwidth(0, 2), 6.0);
  EXPECT_DOUBLE_EQ(star.bandwidth(1, 2), 4.0);
}

TEST(Platform, Validation) {
  EXPECT_THROW(Platform{std::vector<double>{}}, InvalidArgument);
  EXPECT_THROW(Platform{std::vector<double>{0.0}}, InvalidArgument);
  Platform p({1.0, 1.0});
  EXPECT_THROW(p.set_bandwidth(0, 0, 1.0), InvalidArgument);
  EXPECT_THROW(p.set_bandwidth(0, 1, 0.0), InvalidArgument);
  EXPECT_THROW(p.set_bandwidth(0, 5, 1.0), InvalidArgument);
}

TEST(Mapping, RejectsProcessorOnTwoStages) {
  Application app = Application::uniform(2);
  Platform platform = Platform::fully_connected({1.0, 1.0}, 1.0);
  EXPECT_THROW(Mapping(make_instance(app, platform),
                       {{0}, {0}}), InvalidArgument);
}

TEST(Mapping, RejectsEmptyTeamAndBadIndices) {
  Application app = Application::uniform(2);
  Platform platform = Platform::fully_connected({1.0, 1.0}, 1.0);
  EXPECT_THROW(Mapping(make_instance(app, platform),
                       {{0}, {}}), InvalidArgument);
  EXPECT_THROW(Mapping(make_instance(app, platform),
                       {{0}, {7}}), InvalidArgument);
  EXPECT_THROW(Mapping(make_instance(app, platform), {{0}}), InvalidArgument);
}

TEST(Mapping, RequiresBandwidthOnUsedLinks) {
  Application app = Application::uniform(2);
  Platform platform({1.0, 1.0});  // no links set
  EXPECT_THROW(Mapping(make_instance(app, platform),
                       {{0}, {1}}), InvalidArgument);
  // A zero-size file needs no link.
  Application zero_file({1.0, 1.0}, {0.0});
  EXPECT_NO_THROW(Mapping(make_instance(zero_file, platform), {{0}, {1}}));
}

TEST(Mapping, StageOfAndTeams) {
  Mapping mapping = testing::replicated_chain_mapping(2, 3, 1);
  EXPECT_EQ(mapping.stage_of(0), 0u);
  EXPECT_EQ(mapping.stage_of(2), 1u);
  EXPECT_EQ(mapping.stage_of(5), 2u);
  EXPECT_EQ(mapping.team(1)[1], 3u);
  EXPECT_EQ(mapping.replication(1), 3u);
}

struct PathCountCase {
  std::vector<std::size_t> replications;
  std::int64_t expected_paths;
};

class PathCountTest : public ::testing::TestWithParam<PathCountCase> {};

// Proposition 1: the number of round-robin paths is lcm(R_1, .., R_N).
TEST_P(PathCountTest, MatchesLcm) {
  const auto& c = GetParam();
  const std::size_t n = c.replications.size();
  std::size_t total = 0;
  for (std::size_t r : c.replications) total += r;
  Application app = Application::uniform(n);
  Platform platform =
      Platform::fully_connected(std::vector<double>(total, 1.0), 1.0);
  std::vector<std::vector<std::size_t>> teams(n);
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < c.replications[i]; ++k)
      teams[i].push_back(next++);
  Mapping mapping(make_instance(app, platform), teams);
  EXPECT_EQ(mapping.num_paths(), c.expected_paths);

  // Every path follows the round-robin rule.
  for (std::int64_t j = 0; j < mapping.num_paths(); ++j) {
    const auto path = mapping.path(j);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(path[i],
                teams[i][static_cast<std::size_t>(j) % c.replications[i]]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Proposition1, PathCountTest,
    ::testing::Values(PathCountCase{{1, 1, 1}, 1}, PathCountCase{{2, 3}, 6},
                      PathCountCase{{2, 4}, 4}, PathCountCase{{3, 3, 3}, 3},
                      PathCountCase{{1, 3, 4, 5}, 60},
                      PathCountCase{{2, 6, 4}, 12},
                      // Example A of Figure 1: 1, 2, 3, 1 -> 6 paths.
                      PathCountCase{{1, 2, 3, 1}, 6}));

TEST(Mapping, PathRejectsOutOfRangeIndices) {
  // Regression: path(j) used to silently return path(j mod m) for
  // j >= num_paths(), masking index bugs in callers. Both bounds now throw.
  Mapping mapping = testing::replicated_chain_mapping(2, 3, 1);  // m = 6
  ASSERT_EQ(mapping.num_paths(), 6);
  EXPECT_NO_THROW(mapping.path(0));
  EXPECT_NO_THROW(mapping.path(5));
  EXPECT_THROW(mapping.path(6), InvalidArgument);
  EXPECT_THROW(mapping.path(7), InvalidArgument);
  EXPECT_THROW(mapping.path(-1), InvalidArgument);
}

TEST(Mapping, SharesInstanceAcrossConstructionPaths) {
  const InstancePtr instance = make_instance(
      Application::uniform(2), Platform::fully_connected({1.0, 2.0, 3.0}, 4.0));
  ASSERT_EQ(instance.use_count(), 1);

  const Mapping a(instance, {{0}, {1, 2}});
  const Mapping b(instance, {{0, 1}, {2}});
  // Mappings reference the instance, they do not copy it.
  EXPECT_EQ(a.instance().get(), instance.get());
  EXPECT_EQ(b.instance().get(), instance.get());
  EXPECT_EQ(instance.use_count(), 3);

  // Copying a mapping shares too (no bandwidth-matrix duplication).
  const Mapping c = a;
  EXPECT_EQ(c.instance().get(), instance.get());
  EXPECT_EQ(instance.use_count(), 4);

  // The compatibility constructor wraps its arguments into a fresh
  // instance of its own.
  const Mapping legacy(make_instance(Application::uniform(2),
                       Platform::fully_connected({1.0, 1.0}, 1.0)),
                       {{0}, {1}});
  EXPECT_NE(legacy.instance().get(), instance.get());
  EXPECT_EQ(legacy.instance().use_count(), 1);
}

TEST(Mapping, WithTeamsSharesInstanceAndRevalidatesTouchedTeams) {
  // P0 -> P1 exists, P0 -> P2 does not: deriving teams that use the
  // missing link must throw when (and only when) the touched list names
  // the stage whose team changed.
  Application app = Application::uniform(2);
  Platform platform({1.0, 1.0, 1.0});
  platform.set_bandwidth(0, 1, 1.0);
  const Mapping base(make_instance(std::move(app), std::move(platform)),
                     {{0}, {1}});

  // A valid derive shares the instance allocation.
  const Mapping same = Mapping::with_teams(base, {{0}, {1}}, {});
  EXPECT_EQ(same.instance().get(), base.instance().get());
  EXPECT_EQ(same.num_paths(), 1);

  // Moving P2 into stage 1 uses the missing (0, 2) link; naming stage 1 as
  // touched triggers the revalidation of column 0.
  EXPECT_THROW(Mapping::with_teams(base, {{0}, {1, 2}}, {1}),
               InvalidArgument);

  // Structural checks always run, touched or not.
  EXPECT_THROW(Mapping::with_teams(base, {{0}, {}}, {1}), InvalidArgument);
  EXPECT_THROW(Mapping::with_teams(base, {{0}, {1}, {2}}, {}),
               InvalidArgument);
  EXPECT_THROW(Mapping::with_teams(base, {{0}, {1}}, {5}), InvalidArgument);
}

TEST(Mapping, CompAndCommTimes) {
  Mapping mapping = testing::chain_mapping({2.0, 4.0}, {3.0});
  EXPECT_DOUBLE_EQ(mapping.comp_time(0), 2.0);
  EXPECT_DOUBLE_EQ(mapping.comp_time(1), 4.0);
  EXPECT_DOUBLE_EQ(mapping.comm_time(0, 1), 3.0);
  EXPECT_THROW(mapping.comm_time(1, 0), InvalidArgument);
}

TEST(Mapping, CycleTimeChainNoReplication) {
  Mapping mapping = testing::chain_mapping({2.0, 4.0, 1.0}, {3.0, 5.0});
  const CycleTime ct0 = mapping.cycle_time(0);
  EXPECT_DOUBLE_EQ(ct0.input, 0.0);  // first stage receives nothing
  EXPECT_DOUBLE_EQ(ct0.compute, 2.0);
  EXPECT_DOUBLE_EQ(ct0.output, 3.0);
  const CycleTime ct1 = mapping.cycle_time(1);
  EXPECT_DOUBLE_EQ(ct1.input, 3.0);
  EXPECT_DOUBLE_EQ(ct1.compute, 4.0);
  EXPECT_DOUBLE_EQ(ct1.output, 5.0);
  // Overlap: max of the three; Strict: their sum.
  EXPECT_DOUBLE_EQ(ct1.exec(ExecutionModel::kOverlap), 5.0);
  EXPECT_DOUBLE_EQ(ct1.exec(ExecutionModel::kStrict), 12.0);
  EXPECT_DOUBLE_EQ(mapping.max_cycle_time(ExecutionModel::kOverlap), 5.0);
  EXPECT_DOUBLE_EQ(mapping.max_cycle_time(ExecutionModel::kStrict), 12.0);
}

TEST(Mapping, CycleTimeWithReplication) {
  // Stage 2 replicated on two processors: each handles every other data
  // set, so its per-data-set compute time halves; C_comp uses the slowest
  // team member (§2.2).
  Application app = Application::uniform(2);
  Platform platform({1.0, 1.0, 0.5});  // P2 is half speed
  platform.set_bandwidth(0, 1, 0.5);   // comm time 2
  platform.set_bandwidth(0, 2, 0.25);  // comm time 4
  Mapping mapping(make_instance(app, platform), {{0}, {1, 2}});

  // Per-processor busy time per global data set: c_p / R.
  EXPECT_DOUBLE_EQ(mapping.cycle_time(1).compute, 0.5);
  EXPECT_DOUBLE_EQ(mapping.cycle_time(2).compute, 1.0);
  // P0 sends alternately over both links: (2 + 4) / 2 per data set.
  EXPECT_DOUBLE_EQ(mapping.cycle_time(0).output, 3.0);
  // P1 receives its file every 2 data sets: 2 / 2 = 1 per data set.
  EXPECT_DOUBLE_EQ(mapping.cycle_time(1).input, 1.0);
  EXPECT_DOUBLE_EQ(mapping.cycle_time(2).input, 2.0);
}

TEST(StochasticTiming, BuildersCoverUsedResourcesOnly) {
  Mapping mapping = testing::replicated_chain_mapping(1, 2, 1);
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  EXPECT_DOUBLE_EQ(det.comp(0)->mean(), mapping.comp_time(0));
  EXPECT_DOUBLE_EQ(det.comm(0, 1)->mean(), mapping.comm_time(0, 1));
  EXPECT_DOUBLE_EQ(det.comp(0)->variance(), 0.0);
  EXPECT_THROW(det.comm(3, 0), InvalidArgument);  // unused direction

  const StochasticTiming exp = StochasticTiming::exponential(mapping);
  EXPECT_DOUBLE_EQ(exp.comp(1)->mean(), mapping.comp_time(1));
  EXPECT_DOUBLE_EQ(exp.comp(1)->variance(),
                   mapping.comp_time(1) * mapping.comp_time(1));
  EXPECT_TRUE(exp.all_nbue());

  const StochasticTiming heavy =
      StochasticTiming::scaled(mapping, *make_gamma(0.5, 1.0));
  EXPECT_DOUBLE_EQ(heavy.comp(1)->mean(), mapping.comp_time(1));
  EXPECT_FALSE(heavy.all_nbue());
}

TEST(StochasticTiming, OverridesApply) {
  Mapping mapping = testing::chain_mapping({1.0, 1.0}, {1.0});
  StochasticTiming timing = StochasticTiming::deterministic(mapping);
  timing.set_comp(0, make_exponential_mean(5.0));
  EXPECT_DOUBLE_EQ(timing.comp(0)->mean(), 5.0);
  EXPECT_THROW(timing.set_comp(0, nullptr), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
