// Global invariants and the stochastic-comparison theorems (Theorems 5/6)
// as executable properties over random instances.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "model/random_instance.hpp"
#include "sim/pipeline_sim.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

Mapping scaled_instance(const Mapping& base, double work_scale,
                        double speed_scale) {
  const Application& app = base.application();
  std::vector<double> works = app.stage_works();
  std::vector<double> files = app.file_sizes();
  for (double& w : works) w *= work_scale;
  for (double& f : files) f *= work_scale;
  std::vector<double> speeds;
  for (std::size_t p = 0; p < base.num_processors(); ++p)
    speeds.push_back(base.platform().speed(p) * speed_scale);
  Platform platform(speeds);
  for (std::size_t p = 0; p < base.num_processors(); ++p)
    for (std::size_t q = p + 1; q < base.num_processors(); ++q)
      if (base.platform().bandwidth(p, q) > 0.0)
        platform.set_bandwidth(p, q,
                               base.platform().bandwidth(p, q) * speed_scale);
  std::vector<std::vector<std::size_t>> teams;
  for (std::size_t i = 0; i < base.num_stages(); ++i)
    teams.push_back(base.team(i));
  return Mapping(make_instance(Application(works, files), platform), teams);
}

class ScalingTest : public ::testing::TestWithParam<std::uint64_t> {};

// Time scaling: multiplying every work/file by c (or dividing every
// speed/bandwidth by c) divides the throughput by c, in every analysis.
TEST_P(ScalingTest, ThroughputScalesInverselyWithTime) {
  Prng prng(GetParam());
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 8;
  options.max_paths = 24;
  const Mapping base = random_instance(options, prng);
  const double c = 3.7;
  const Mapping slower = scaled_instance(base, c, 1.0);
  const Mapping faster = scaled_instance(base, 1.0, c);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const double rho = deterministic_throughput(base, model).throughput;
    EXPECT_NEAR(deterministic_throughput(slower, model).throughput, rho / c,
                1e-9 * rho);
    EXPECT_NEAR(deterministic_throughput(faster, model).throughput, rho * c,
                1e-9 * rho * c);
  }
  const double exp_rho =
      exponential_throughput(base, ExecutionModel::kOverlap).throughput;
  EXPECT_NEAR(
      exponential_throughput(slower, ExecutionModel::kOverlap).throughput,
      exp_rho / c, 1e-9 * exp_rho);
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, ScalingTest,
                         ::testing::Range<std::uint64_t>(800, 805));

TEST(Invariants, ProcessorRelabelingDoesNotChangeThroughput) {
  // Renaming processors (consistently across platform and teams) is
  // physically meaningless and must not change any analysis.
  Prng prng(42);
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 7;
  options.max_paths = 12;
  const Mapping base = random_instance(options, prng);
  // Reverse-relabel: p -> M-1-p.
  const std::size_t m = base.num_processors();
  std::vector<double> speeds(m);
  for (std::size_t p = 0; p < m; ++p)
    speeds[m - 1 - p] = base.platform().speed(p);
  Platform platform(speeds);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t q = p + 1; q < m; ++q)
      if (base.platform().bandwidth(p, q) > 0.0)
        platform.set_bandwidth(m - 1 - p, m - 1 - q,
                               base.platform().bandwidth(p, q));
  std::vector<std::vector<std::size_t>> teams;
  for (std::size_t i = 0; i < base.num_stages(); ++i) {
    std::vector<std::size_t> team;
    for (std::size_t p : base.team(i)) team.push_back(m - 1 - p);
    teams.push_back(team);
  }
  const Mapping relabeled(make_instance(base.application(), platform), teams);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    EXPECT_NEAR(deterministic_throughput(base, model).throughput,
                deterministic_throughput(relabeled, model).throughput, 1e-12);
  }
  EXPECT_NEAR(
      exponential_throughput(base, ExecutionModel::kOverlap).throughput,
      exponential_throughput(relabeled, ExecutionModel::kOverlap).throughput,
      1e-12);
}

class MonotonicityTest : public ::testing::TestWithParam<std::uint64_t> {};

// Theorem 5 (strong order): stochastically enlarging ONE resource's times —
// here by scaling its mean up — can only decrease the throughput. Checked
// on the analytical paths (det + exponential columns).
TEST_P(MonotonicityTest, SlowingAnyResourceNeverHelps) {
  Prng prng(GetParam());
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 7;
  options.max_paths = 12;
  const Mapping base = random_instance(options, prng);
  const double det_base =
      deterministic_throughput(base, ExecutionModel::kOverlap).throughput;
  const double exp_base =
      exponential_throughput(base, ExecutionModel::kOverlap).throughput;
  // Slow each processor in turn by 25%.
  for (std::size_t victim = 0; victim < base.num_processors(); ++victim) {
    std::vector<double> speeds;
    for (std::size_t p = 0; p < base.num_processors(); ++p)
      speeds.push_back(base.platform().speed(p) / (p == victim ? 1.25 : 1.0));
    Platform platform(speeds);
    for (std::size_t p = 0; p < base.num_processors(); ++p)
      for (std::size_t q = p + 1; q < base.num_processors(); ++q)
        if (base.platform().bandwidth(p, q) > 0.0)
          platform.set_bandwidth(p, q, base.platform().bandwidth(p, q));
    std::vector<std::vector<std::size_t>> teams;
    for (std::size_t i = 0; i < base.num_stages(); ++i)
      teams.push_back(base.team(i));
    const Mapping slowed(make_instance(base.application(), platform), teams);
    EXPECT_LE(
        deterministic_throughput(slowed, ExecutionModel::kOverlap).throughput,
        det_base * (1.0 + 1e-9))
        << "victim P" << victim;
    EXPECT_LE(
        exponential_throughput(slowed, ExecutionModel::kOverlap).throughput,
        exp_base * (1.0 + 1e-9))
        << "victim P" << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, MonotonicityTest,
                         ::testing::Range<std::uint64_t>(900, 905));

TEST(Invariants, SimulationsAreSeedDeterministic) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const StochasticTiming exp = StochasticTiming::exponential(mapping);
  PipelineSimOptions options;
  options.data_sets = 5'000;
  options.seed = 12345;
  const auto a =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, exp, options);
  const auto b =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, exp, options);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  options.seed = 54321;
  const auto c =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, exp, options);
  EXPECT_NE(a.throughput, c.throughput);
}

// Theorem 6 corollary at the analysis level: exponential (CV = 1) never
// beats deterministic (CV = 0) — the icx comparison, over random instances.
TEST(Invariants, ExponentialNeverBeatsDeterministic) {
  Prng prng(31337);
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 10;
  options.max_paths = 48;
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    const double det =
        deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
    const double exp =
        exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;
    EXPECT_LE(exp, det * (1.0 + 1e-9)) << mapping.to_string();
  }
}

}  // namespace
}  // namespace streamflow
