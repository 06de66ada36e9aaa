#include "maxplus/deterministic.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "model/random_instance.hpp"
#include "sim/teg_sim.hpp"
#include "support/deterministic_reference.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

TEST(Deterministic, SingleStageSingleProcessor) {
  const Mapping mapping = testing::chain_mapping({2.0}, {});
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const auto r = deterministic_throughput(mapping, model);
    EXPECT_DOUBLE_EQ(r.throughput, 0.5);
    EXPECT_TRUE(r.critical_resource_attained);
  }
}

TEST(Deterministic, ChainWithoutReplicationMatchesCriticalResource) {
  // §2.3: without replication the throughput is dictated by the critical
  // resource in both models.
  const Mapping mapping = testing::chain_mapping({2.0, 4.0, 3.0}, {1.0, 5.0});
  const auto overlap =
      deterministic_throughput(mapping, ExecutionModel::kOverlap);
  // Overlap bottleneck: max(comp, comm) = 5.
  EXPECT_NEAR(overlap.throughput, 1.0 / 5.0, 1e-12);
  EXPECT_TRUE(overlap.critical_resource_attained);

  const auto strict =
      deterministic_throughput(mapping, ExecutionModel::kStrict);
  // Strict bottleneck: P1 does 1 + 4 + 5 = 10 per data set.
  EXPECT_NEAR(strict.throughput, 1.0 / 10.0, 1e-12);
  EXPECT_TRUE(strict.critical_resource_attained);
}

TEST(Deterministic, ReplicationMultipliesComputeThroughput) {
  // Stage 2 replicated k times with negligible comms: throughput = k / comp.
  for (std::size_t k : {2u, 3u, 5u}) {
    Application app = Application::uniform(3);
    std::vector<double> speeds(2 + k, 1.0);
    speeds[0] = 1e6;             // stage 1 negligible
    speeds[1 + k] = 1e6;         // stage 3 negligible
    for (std::size_t i = 0; i < k; ++i) speeds[1 + i] = 0.25;  // comp 4
    Platform platform = Platform::fully_connected(speeds, 1e6);
    std::vector<std::size_t> mid(k);
    for (std::size_t i = 0; i < k; ++i) mid[i] = 1 + i;
    Mapping mapping(make_instance(app, platform), {{0}, mid, {1 + k}});
    const auto r = deterministic_throughput(mapping, ExecutionModel::kOverlap);
    EXPECT_NEAR(r.throughput, static_cast<double>(k) / 4.0, 1e-9);
  }
}

TEST(Deterministic, RoundRobinPacedBySlowestReplica) {
  // §2.2: a fast replica of a MIDDLE stage is held back by the slowest one,
  // because the downstream stage collects results in round-robin order.
  Application app = Application::uniform(3);
  Platform platform =
      Platform::fully_connected({1e6, 1.0, 0.25, 1e6}, 1e6);
  // Stage 2 on P1 (comp 1) and P2 (comp 4).
  Mapping mapping(make_instance(app, platform), {{0}, {1, 2}, {3}});
  const auto r = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  // Period per data set = 4/2 = 2 (not (1+4)/2): the slow replica paces.
  EXPECT_NEAR(r.throughput, 0.5, 1e-6);
  EXPECT_TRUE(r.critical_resource_attained);
}

TEST(Deterministic, ReplicatedLastStageSumsIndependentRates) {
  // A replicated LAST stage has no downstream round-robin collector: each
  // replica completes its own rows at its own pace, so the rates add
  // (1/1 + 1/4 here), unlike the middle-stage case above.
  Application app = Application::uniform(2);
  Platform platform({1e6, 1.0, 0.25});
  platform.set_bandwidth(0, 1, 1e6);
  platform.set_bandwidth(0, 2, 1e6);
  Mapping mapping(make_instance(app, platform), {{0}, {1, 2}});
  const auto r = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(r.throughput, 1.25, 1e-6);
  // The fast row completes every 2 time units per firing... the slowest row
  // is paced by P2's own cycle: 4 per firing.
  EXPECT_NEAR(r.bottleneck_transition_period, 4.0, 1e-9);
}

TEST(Deterministic, HomogeneousCommPatternFlow) {
  // Single u x v homogeneous communication: deterministic flow is
  // min(u, v) / d (the §6 discussion's min(u_i, v_i) lambda_i).
  for (const auto& [u, v] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 3}, {3, 2}, {4, 3}, {1, 5}, {5, 1}, {3, 3}}) {
    const double d = 2.0;
    const Mapping mapping = testing::single_comm_mapping(u, v, d);
    const auto r = deterministic_throughput(mapping, ExecutionModel::kOverlap);
    EXPECT_NEAR(r.throughput, static_cast<double>(std::min(u, v)) / d, 1e-6)
        << "u=" << u << " v=" << v;
  }
}

TEST(Deterministic, StrictNeverFasterThanOverlap) {
  Prng prng(2025);
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 9;
  options.max_paths = 36;
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    const double overlap =
        deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
    const double strict =
        deterministic_throughput(mapping, ExecutionModel::kStrict).throughput;
    EXPECT_LE(strict, overlap * (1.0 + 1e-9)) << mapping.to_string();
  }
}

TEST(Deterministic, ThroughputNeverExceedsCriticalResourceBound) {
  Prng prng(31415);
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 10;
  options.max_paths = 48;
  for (int trial = 0; trial < 15; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    for (const ExecutionModel model :
         {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
      const auto r = deterministic_throughput(mapping, model);
      // The critical-resource bound provably caps the in-order rate; the
      // summed completion rate may exceed it when output rows decouple.
      EXPECT_LE(r.in_order_throughput,
                r.critical_resource_throughput * (1.0 + 1e-9))
          << mapping.to_string() << " " << to_string(model);
      EXPECT_LE(r.in_order_throughput, r.throughput * (1.0 + 1e-9));
    }
  }
}

class DeterministicSimAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// The deterministic TEG simulation must reproduce the analytical period.
TEST_P(DeterministicSimAgreementTest, SimulationMatchesMcr) {
  Prng prng(GetParam());
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 8;
  options.max_paths = 24;
  const Mapping mapping = random_instance(options, prng);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const auto analytic = deterministic_throughput(mapping, model);
    const TimedEventGraph g = build_tpn(mapping, model);
    TegSimOptions sim_options;
    sim_options.rounds = 600;
    const auto sim = simulate_teg_deterministic(g, sim_options);
    EXPECT_LT(relative_difference(analytic.throughput, sim.throughput), 5e-3)
        << mapping.to_string() << " " << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, DeterministicSimAgreementTest,
                         ::testing::Range<std::uint64_t>(100, 110));

}  // namespace
}  // namespace streamflow
