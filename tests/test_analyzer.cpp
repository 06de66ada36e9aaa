#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "model/random_instance.hpp"
#include "sim/teg_sim.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

TEST(Analyzer, SingleProcessorExponential) {
  const Mapping mapping = testing::chain_mapping({2.0}, {});
  const auto overlap =
      exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(overlap.throughput, 0.5, 1e-12);
  EXPECT_EQ(overlap.method_used, ExponentialMethod::kColumns);
  const auto strict = exponential_throughput(mapping, ExecutionModel::kStrict);
  EXPECT_NEAR(strict.throughput, 0.5, 1e-12);
  EXPECT_EQ(strict.method_used, ExponentialMethod::kGeneralCtmc);
}

TEST(Analyzer, TandemChainIsMinOfRates) {
  // Overlap chain without replication: saturation rule gives the min rate.
  const Mapping mapping = testing::chain_mapping({2.0, 5.0, 4.0}, {1.0, 1.0});
  const auto r = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(r.throughput, 0.2, 1e-12);
}

TEST(Analyzer, SingleCommThroughputIsPatternFlowTimesNothing) {
  // Fast computations around one homogeneous u x v communication: the
  // throughput is Theorem 4's u*v*lambda/(u+v-1).
  for (const auto& [u, v] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 3}, {3, 2}, {4, 3}, {1, 4}}) {
    const double d = 2.0;
    const Mapping mapping = testing::single_comm_mapping(u, v, d);
    const auto r = exponential_throughput(mapping, ExecutionModel::kOverlap);
    const double expected = static_cast<double>(u) * static_cast<double>(v) /
                            (d * static_cast<double>(u + v - 1));
    EXPECT_NEAR(r.throughput, expected, 1e-6) << "u=" << u << " v=" << v;
  }
}

TEST(Analyzer, ComponentDiagnosticsMarkBottleneck) {
  // A slow source gates everything downstream.
  const Mapping mapping = testing::chain_mapping({10.0, 1.0}, {1.0});
  const auto r = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(r.throughput, 0.1, 1e-12);
  bool found_bottlenecked_sink = false;
  for (const auto& c : r.components) {
    if (c.label == "T2/P1") {
      EXPECT_TRUE(c.bottleneck);
      EXPECT_NEAR(c.effective, 0.1, 1e-12);
      found_bottlenecked_sink = true;
    }
  }
  EXPECT_TRUE(found_bottlenecked_sink);
}

class ColumnsVsGeneralTest : public ::testing::TestWithParam<std::uint64_t> {};

// Cross-validation of Theorem 3's column method against Theorem 2's general
// CTMC (finite buffers): the general method with growing capacity must
// approach the column value from below.
TEST_P(ColumnsVsGeneralTest, GeneralCtmcApproachesColumns) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 2;
  instance.num_processors = 4;
  instance.max_paths = 4;
  instance.comp_min = 2.0;
  instance.comp_max = 8.0;
  instance.comm_min = 2.0;
  instance.comm_max = 8.0;
  const Mapping mapping = random_instance(instance, prng);

  const double columns =
      exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;

  ExponentialOptions general;
  general.max_states = 600'000;
  double previous = 0.0;
  for (int capacity : {2, 4, 8, 12}) {
    general.place_capacity = capacity;
    const auto r = detail::general_ctmc_throughput(
        mapping, ExecutionModel::kOverlap, general);
    EXPECT_GE(r.throughput, previous - 1e-9) << mapping.to_string();
    EXPECT_LE(r.throughput, columns * (1.0 + 1e-6)) << mapping.to_string();
    previous = r.throughput;
  }
  EXPECT_LT(relative_difference(previous, columns), 0.06)
      << mapping.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, ColumnsVsGeneralTest,
                         ::testing::Range<std::uint64_t>(300, 308));

class ColumnsVsSimulationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Theorem 3/4 vs brute-force stochastic simulation of the unbounded net.
TEST_P(ColumnsVsSimulationTest, SimulationConfirmsColumnMethod) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 8;
  instance.max_paths = 24;
  const Mapping mapping = random_instance(instance, prng);

  const double columns =
      exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;

  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  TegSimOptions sim_options;
  sim_options.rounds = 4000;
  sim_options.seed = GetParam() * 7 + 1;
  const auto sim = simulate_teg(g, transition_laws(g, timing), sim_options);
  EXPECT_LT(relative_difference(columns, sim.throughput), 0.05)
      << mapping.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, ColumnsVsSimulationTest,
                         ::testing::Range<std::uint64_t>(400, 408));

TEST(Analyzer, StrictGeneralCtmcMatchesSimulation) {
  const Mapping mapping = testing::replicated_chain_mapping(1, 2, 1, 2.0, 1.0);
  const auto analytic =
      exponential_throughput(mapping, ExecutionModel::kStrict);
  EXPECT_FALSE(analytic.capacity_clipped);  // Strict nets are 1-safe
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  TegSimOptions sim_options;
  sim_options.rounds = 30'000;
  const auto sim = simulate_teg(g, transition_laws(g, timing), sim_options);
  EXPECT_LT(relative_difference(analytic.throughput, sim.throughput), 0.03);
}

TEST(Analyzer, NbueBoundsAreOrdered) {
  Prng prng(555);
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 7;
  instance.max_paths = 12;
  for (int trial = 0; trial < 6; ++trial) {
    const Mapping mapping = random_instance(instance, prng);
    const NbueBounds bounds =
        nbue_throughput_bounds(mapping, ExecutionModel::kOverlap);
    EXPECT_GT(bounds.lower, 0.0);
    EXPECT_LE(bounds.lower, bounds.upper * (1.0 + 1e-9))
        << mapping.to_string();
  }
}

}  // namespace
}  // namespace streamflow
