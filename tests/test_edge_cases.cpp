// Boundary shapes: one-stage applications, zero-size files, single-processor
// platforms, extreme heterogeneity — places where index arithmetic and
// degenerate patterns tend to break.
#include <gtest/gtest.h>

#include <limits>

#include "core/analyzer.hpp"
#include "maxplus/deterministic.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

TEST(EdgeCases, OneStageOneProcessor) {
  Application app = Application::uniform(1, 4.0);
  Platform platform({2.0});
  Mapping mapping(make_instance(app, platform), {{0}});
  EXPECT_EQ(mapping.num_paths(), 1);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    EXPECT_NEAR(deterministic_throughput(mapping, model).throughput, 0.5,
                1e-12);
    EXPECT_NEAR(exponential_throughput(mapping, model).throughput, 0.5,
                1e-12);
  }
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  EXPECT_EQ(g.num_transitions(), 1u);
  EXPECT_EQ(g.num_places(), 1u);  // one marked self-loop
}

TEST(EdgeCases, OneStageReplicatedEverywhere) {
  // A single stage replicated on every processor: pure parallel farm.
  Application app = Application::uniform(1, 6.0);
  Platform platform({1.0, 2.0, 3.0});
  Mapping mapping(make_instance(app, platform), {{0, 1, 2}});
  // Completion rates add: 1/6 + 2/6 + 3/6 = 1.
  const auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(det.throughput, 1.0, 1e-9);
  // In-order delivery is paced by the slowest replica: 3 * (1/6).
  EXPECT_NEAR(det.in_order_throughput, 0.5, 1e-9);
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(exp.throughput, 1.0, 1e-9);
}

TEST(EdgeCases, ZeroSizeFileMeansFreeCommunication) {
  // A zero-byte file needs no link and no transfer time; the deterministic
  // analysis and the column method both treat the communication as free.
  Application app({2.0, 3.0}, {0.0});
  Platform platform({1.0, 1.0});  // no links defined: legal for empty files
  Mapping mapping(make_instance(app, platform), {{0}, {1}});
  EXPECT_DOUBLE_EQ(mapping.comm_time(0, 1), 0.0);
  const auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(det.throughput, 1.0 / 3.0, 1e-12);
  // Strict: the cycle still sums to comp + 0 + 0.
  const auto strict =
      deterministic_throughput(mapping, ExecutionModel::kStrict);
  EXPECT_NEAR(strict.throughput, 1.0 / 3.0, 1e-12);
}

TEST(EdgeCases, GeneralCtmcRejectsZeroDurations) {
  // Exponential firing with an infinite rate is not representable in the
  // reachability CTMC: the general method must refuse cleanly.
  Application app({2.0, 3.0}, {0.0});
  Platform platform({1.0, 1.0});
  Mapping mapping(make_instance(app, platform), {{0}, {1}});
  // Strict runs the general method.
  EXPECT_THROW(exponential_throughput(mapping, ExecutionModel::kStrict),
               InvalidArgument);
}

TEST(EdgeCases, ExtremeHeterogeneityStaysFinite) {
  // 10^6 speed ratio across a replicated stage: analyses stay finite and
  // ordered.
  Application app = Application::uniform(2);
  Platform platform({1.0, 1e6, 1e-3});
  platform.set_bandwidth(0, 1, 1e3);
  platform.set_bandwidth(0, 2, 1e3);
  Mapping mapping(make_instance(app, platform), {{0}, {1, 2}});
  const auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_TRUE(std::isfinite(det.throughput));
  EXPECT_TRUE(std::isfinite(exp.throughput));
  EXPECT_LE(exp.throughput, det.throughput * (1.0 + 1e-9));
  EXPECT_GT(det.in_order_throughput, 0.0);
}

TEST(EdgeCases, TwoStageFullyReplicatedEqualTeams) {
  // u = v teams: gcd = u, all patterns 1x1, so exponential == deterministic
  // exactly (each data set crosses one link).
  const Mapping mapping = testing::single_comm_mapping(4, 4, 2.0);
  const auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(det.throughput, exp.throughput, 1e-9 * det.throughput);
  EXPECT_NEAR(det.throughput, 4.0 / 2.0, 1e-6);
}

TEST(EdgeCases, LongChainManyStages) {
  // 24 stages without replication: analyses stay exact and cheap.
  std::vector<double> comps(24), comms(23);
  for (std::size_t i = 0; i < 24; ++i) comps[i] = 1.0 + 0.1 * static_cast<double>(i);
  for (std::size_t i = 0; i < 23; ++i) comms[i] = 0.3;
  const Mapping mapping = testing::chain_mapping(comps, comms);
  const auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(det.throughput, 1.0 / comps.back(), 1e-9);
  const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
  EXPECT_NEAR(exp.throughput, 1.0 / comps.back(), 1e-9);
}

TEST(EdgeCases, SimOptionsRejectOutOfRangeWarmupFraction) {
  // warmup_fraction must lie in [0, 1). The checks are written so NaN also
  // fails (every comparison with NaN is false), and validation runs on every
  // entry point — including the injected-Prng overloads used by the engine.
  const double bad_fractions[] = {1.0, 1.5, -0.1,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()};
  for (const double fraction : bad_fractions) {
    TegSimOptions teg;
    teg.warmup_fraction = fraction;
    EXPECT_THROW(teg.validate(), InvalidArgument) << fraction;
    PipelineSimOptions pipe;
    pipe.warmup_fraction = fraction;
    EXPECT_THROW(pipe.validate(), InvalidArgument) << fraction;
  }
  // Boundary values that must stay legal.
  TegSimOptions teg_ok;
  teg_ok.warmup_fraction = 0.0;
  EXPECT_NO_THROW(teg_ok.validate());
  PipelineSimOptions pipe_ok;
  pipe_ok.warmup_fraction = 0.999;
  EXPECT_NO_THROW(pipe_ok.validate());
}

TEST(EdgeCases, InjectedPrngOverloadsValidateOptions) {
  const Mapping mapping = testing::chain_mapping({1.0, 1.0}, {0.5});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  Prng prng(1);
  PipelineSimOptions pipe;
  pipe.warmup_fraction = -0.25;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, prng, pipe),
      InvalidArgument);
  TegSimOptions teg;
  teg.warmup_fraction = 2.0;
  EXPECT_THROW(
      simulate_teg(g, transition_laws(g, det), prng, teg), InvalidArgument);
}

TEST(EdgeCases, SimulatorsHandleDegenerateShapes) {
  // One stage, one processor; and one stage replicated: both simulators run
  // and agree with the analyses.
  {
    Application app = Application::uniform(1, 2.0);
    Platform platform({1.0});
    Mapping mapping(make_instance(app, platform), {{0}});
    PipelineSimOptions options;
    options.data_sets = 10'000;
    const auto sim = simulate_pipeline(
        mapping, ExecutionModel::kStrict,
        StochasticTiming::exponential(mapping), options);
    EXPECT_NEAR(sim.throughput, 0.5, 0.02);
  }
  {
    Application app = Application::uniform(1, 2.0);
    Platform platform({1.0, 1.0, 1.0});
    Mapping mapping(make_instance(app, platform), {{0, 1, 2}});
    const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
    TegSimOptions options;
    options.rounds = 5'000;
    const auto sim = simulate_teg(
        g, transition_laws(g, StochasticTiming::exponential(mapping)),
        options);
    EXPECT_NEAR(sim.throughput, 1.5, 0.05);
  }
}

}  // namespace
}  // namespace streamflow
