#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "support/deterministic_reference.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

class PipelineVsMcrTest : public ::testing::TestWithParam<std::uint64_t> {};

// The direct pipeline simulator with constant times must reproduce the
// analytical deterministic throughput (it is an independent implementation
// of the same semantics).
TEST_P(PipelineVsMcrTest, DeterministicPipelineMatchesAnalysis) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 4;
  instance.num_processors = 10;
  instance.max_paths = 40;
  const Mapping mapping = random_instance(instance, prng);
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const double analytic = deterministic_throughput(mapping, model).throughput;
    PipelineSimOptions options;
    options.data_sets = 20'000;
    const auto sim = simulate_pipeline(mapping, model, det, options);
    EXPECT_LT(relative_difference(analytic, sim.throughput), 5e-3)
        << mapping.to_string() << " " << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, PipelineVsMcrTest,
                         ::testing::Range<std::uint64_t>(500, 510));

class FidelityTest : public ::testing::TestWithParam<std::uint64_t> {};

// §7.4 fidelity: the TPN-based simulator and the direct pipeline simulator
// agree under exponential times (independent implementations, same model).
TEST_P(FidelityTest, TegSimAgreesWithPipelineSim) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 8;
  instance.max_paths = 24;
  const Mapping mapping = random_instance(instance, prng);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const TimedEventGraph g = build_tpn(mapping, model);
    TegSimOptions teg_options;
    teg_options.rounds = 3000;
    const auto teg = simulate_teg(g, transition_laws(g, timing), teg_options);
    PipelineSimOptions pipe_options;
    pipe_options.data_sets = 60'000;
    pipe_options.seed = GetParam() + 1;
    const auto pipe = simulate_pipeline(mapping, model, timing, pipe_options);
    EXPECT_LT(relative_difference(teg.throughput, pipe.throughput), 0.05)
        << mapping.to_string() << " " << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, FidelityTest,
                         ::testing::Range<std::uint64_t>(600, 607));

TEST(PipelineSim, StrictNeverFasterThanOverlap) {
  Prng prng(888);
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 8;
  instance.max_paths = 24;
  for (int trial = 0; trial < 5; ++trial) {
    const Mapping mapping = random_instance(instance, prng);
    const StochasticTiming timing = StochasticTiming::exponential(mapping);
    PipelineSimOptions options;
    options.data_sets = 30'000;
    const auto overlap =
        simulate_pipeline(mapping, ExecutionModel::kOverlap, timing, options);
    const auto strict =
        simulate_pipeline(mapping, ExecutionModel::kStrict, timing, options);
    EXPECT_LE(strict.throughput, overlap.throughput * 1.02)
        << mapping.to_string();
  }
}

TEST(PipelineSim, CommBoundThroughputScalesWithCommTime) {
  // A communication-bound chain: doubling the communication time halves the
  // throughput.
  const Mapping fast = testing::chain_mapping({0.01, 0.01}, {1.0});
  const Mapping slow = testing::chain_mapping({0.01, 0.01}, {2.0});
  PipelineSimOptions options;
  options.data_sets = 5'000;
  const auto full =
      simulate_pipeline(fast, ExecutionModel::kOverlap,
                        StochasticTiming::deterministic(fast), options);
  const auto half =
      simulate_pipeline(slow, ExecutionModel::kOverlap,
                        StochasticTiming::deterministic(slow), options);
  EXPECT_NEAR(half.throughput / full.throughput, 0.5, 0.01);
}

TEST(PipelineSim, WarmupZeroReproducesTotalTimeProtocol) {
  const Mapping mapping = testing::chain_mapping({1.0, 1.0}, {0.5});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  PipelineSimOptions options;
  options.data_sets = 100;
  options.warmup_fraction = 0.0;
  const auto sim =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, options);
  EXPECT_EQ(sim.completed, 100);
  EXPECT_DOUBLE_EQ(sim.elapsed, sim.makespan);
  // Finite-horizon throughput is below the steady-state value (ramp-up).
  EXPECT_LT(sim.throughput, 1.0);
  EXPECT_GT(sim.throughput, 0.9);
}

TEST(PipelineSim, AssociatedOrderingOfTheorem8) {
  // Theorem 8: rho(det means) >= rho(associated) >= rho(iid with the same
  // marginals). In §6.2's model (works and sizes independent across
  // columns, scope = kPerStage) each data set materializes only one
  // resource per column, so the associated case coincides with the
  // independent one and the ordering holds with equality on the right.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);

  PipelineSimOptions options;
  options.data_sets = 120'000;

  const double det =
      deterministic_throughput(mapping, ExecutionModel::kStrict).throughput;
  const auto associated = simulate_pipeline_associated(
      mapping, ExecutionModel::kStrict, *size_law, options,
      AssociationScope::kPerStage);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kStrict, iid, options);

  EXPECT_GE(det * 1.01, associated.throughput);
  EXPECT_LT(relative_difference(associated.throughput, independent.throughput),
            0.03);
}

TEST(PipelineSim, PathWideCorrelationHurtsStrictThroughput) {
  // Extension beyond §6.2: when ONE size drives a data set's every time
  // along the path, each row's service block becomes icx-larger (perfectly
  // correlated sums have the largest variance), and the Strict throughput
  // drops below the independent case.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);
  PipelineSimOptions options;
  options.data_sets = 120'000;
  const auto path_wide = simulate_pipeline_associated(
      mapping, ExecutionModel::kStrict, *size_law, options,
      AssociationScope::kPerDataSet);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kStrict, iid, options);
  EXPECT_LT(path_wide.throughput, independent.throughput);
}

TEST(PipelineSim, PerStageAssociationDegeneratesToIndependent) {
  // With one independent multiplier per (stage, data set), each data set
  // touches one processor per stage and one link per file, so the
  // "association" is distributionally identical to the independent case.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);
  PipelineSimOptions options;
  options.data_sets = 120'000;
  const auto per_stage = simulate_pipeline_associated(
      mapping, ExecutionModel::kOverlap, *size_law, options,
      AssociationScope::kPerStage);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, iid, options);
  EXPECT_LT(relative_difference(per_stage.throughput, independent.throughput),
            0.03);
}

TEST(PipelineSim, OptionValidation) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  PipelineSimOptions bad;
  bad.data_sets = 1;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, bad),
      InvalidArgument);
  bad = {};
  bad.warmup_fraction = 1.0;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, bad),
      InvalidArgument);
}

TEST(TegSim, OptionValidation) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  TegSimOptions bad;
  bad.rounds = 2;
  EXPECT_THROW(simulate_teg_deterministic(g, bad), InvalidArgument);
  bad = {};
  bad.warmup_fraction = -0.5;
  EXPECT_THROW(simulate_teg_deterministic(g, bad), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
