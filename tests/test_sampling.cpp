// The SIMD-batched sampling layer's core contract: batching changes HOW FAST
// draws are materialized, never WHICH draws. Every test here pins
// byte-equality between a batch-filled stream and the plain scalar Prng on
// every kernel compiled into this build (scalar always; AVX2 when it is
// compiled in and the host supports it), including refill-boundary
// crossings, partial drains, and the batched transform kernels of the
// inversion families.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/buffered_prng.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/simd_fill.hpp"
#include "core/analyzer.hpp"
#include "dist/batch_sampler.hpp"
#include "dist/distribution.hpp"
#include "engine/sim_replication.hpp"
#include "model/timing.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

using testing::replicated_chain_mapping;
using testing::single_comm_mapping;

// A deliberately small block (3 refills over 300 draws) so every test
// crosses refill boundaries many times. Must be a multiple of kLanes * 8.
constexpr std::size_t kSmallBlock = simd::kLanes * 8 * 3;

std::vector<simd::Isa> isas() { return simd::available_isas(); }

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

TEST(SimdDispatch, BestIsaIsAvx2ExactlyWhenCompiledInAndSupported) {
  const bool avx2 = simd::avx2_kernels() != nullptr && cpu_has_avx2();
  EXPECT_EQ(simd::best_isa(), avx2 ? simd::Isa::kAvx2 : simd::Isa::kScalar);
}

TEST(SimdDispatch, AvailableIsasAreScalarThenAvx2) {
  const std::vector<simd::Isa> expected =
      simd::best_isa() == simd::Isa::kAvx2
          ? std::vector<simd::Isa>{simd::Isa::kScalar, simd::Isa::kAvx2}
          : std::vector<simd::Isa>{simd::Isa::kScalar};
  EXPECT_EQ(simd::available_isas(), expected);
}

TEST(SimdDispatch, IsaNameNamesEveryEnumerator) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAuto), "auto");
}

TEST(SimdDispatch, AutoResolvesToTheBestKernels) {
  EXPECT_EQ(&simd::kernels(simd::Isa::kAuto),
            &simd::kernels(simd::best_isa()));
  if (simd::best_isa() == simd::Isa::kAvx2) {
    EXPECT_EQ(&simd::kernels(simd::Isa::kAvx2), simd::avx2_kernels());
  } else {
    EXPECT_THROW((void)simd::kernels(simd::Isa::kAvx2), InvalidArgument);
  }
}

TEST(BufferedPrng, RawStreamByteEqualOnEveryIsa) {
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Prng scalar(12345);
    BufferedPrng buffered(Prng(12345), isa, kSmallBlock);
    for (std::size_t i = 0; i < 10 * kSmallBlock + 7; ++i) {
      ASSERT_EQ(buffered.next_u64(), scalar()) << "draw " << i;
    }
  }
}

TEST(BufferedPrng, ContinuesFromMidStreamState) {
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Prng scalar(99);
    for (int i = 0; i < 1234; ++i) scalar();  // advance off block alignment
    BufferedPrng buffered(scalar, isa, kSmallBlock);
    Prng reference = scalar;
    for (std::size_t i = 0; i < 3 * kSmallBlock; ++i) {
      ASSERT_EQ(buffered.next_u64(), reference()) << "draw " << i;
    }
  }
}

TEST(BufferedPrng, Uniform01ByteEqualIncludingPartialDrains) {
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Prng scalar(7);
    BufferedPrng buffered(Prng(7), isa, kSmallBlock);
    // Interleave scalar-wise consumption with bulk fills of awkward sizes so
    // the bulk path starts both block-aligned and mid-block.
    const std::size_t chunks[] = {5,   kSmallBlock - 5, 1, 2 * kSmallBlock + 3,
                                  129, kSmallBlock,     31};
    for (const std::size_t chunk : chunks) {
      ASSERT_EQ(buffered.uniform01(), scalar.uniform01());
      std::vector<double> bulk(chunk);
      buffered.fill_uniform01(bulk.data(), bulk.size());
      for (std::size_t i = 0; i < chunk; ++i) {
        const double expected = scalar.uniform01();
        ASSERT_EQ(bulk[i], expected) << "chunk " << chunk << " index " << i;
      }
    }
  }
}

TEST(BufferedPrng, TransformsMatchScalarSource) {
  // The inherited RandomSource transforms (normal01 with its cached second
  // deviate, gamma, uniform_index rejection loops) consume the buffered raw
  // stream draw for draw like the scalar engine.
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Prng scalar(31337);
    BufferedPrng buffered(Prng(31337), isa, kSmallBlock);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(buffered.normal01(), scalar.normal01());
      ASSERT_EQ(buffered.gamma(2.5), scalar.gamma(2.5));
      ASSERT_EQ(buffered.uniform_index(97), scalar.uniform_index(97));
      ASSERT_EQ(buffered.exponential(3.0), scalar.exponential(3.0));
    }
  }
}

TEST(SampleBatch, InversionFamiliesBitIdenticalToScalarLoop) {
  const DistributionPtr laws[] = {
      make_constant(2.5),        make_exponential_rate(1.7),
      make_uniform(0.5, 4.0),    make_weibull(2.0, 1.5),
      make_pareto(3.0, 1.0),     make_truncated_normal(10.0, 3.0),
      make_gamma(2.0, 1.0),      make_beta(2.0, 3.0, 1.0),
      make_lognormal(0.0, 0.5),  make_hyperexponential(0.3, 1.0, 4.0),
  };
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    for (const DistributionPtr& law : laws) {
      SCOPED_TRACE(law->name());
      Prng scalar(4242);
      BufferedPrng buffered(Prng(4242), isa, kSmallBlock);
      std::vector<double> batch(777);  // not a multiple of any block size
      law->sample_batch(buffered, batch.data(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double expected = law->sample(scalar);
        ASSERT_EQ(batch[i], expected) << "index " << i;
      }
    }
  }
}

TEST(BatchSamplerTest, ServesTheExactScalarSequence) {
  const DistributionPtr laws[] = {make_exponential_rate(0.8),
                                  make_gamma(0.7, 2.0)};
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    for (const DistributionPtr& law : laws) {
      SCOPED_TRACE(law->name());
      Prng stream(5);
      const Prng reference = stream;  // BatchSampler must not touch `stream`
      BatchSampler sampler(law, stream, isa, kSmallBlock, 16);
      Prng scalar = reference;
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(sampler.next(), law->sample(scalar)) << "draw " << i;
      }
      ASSERT_EQ(stream.state(), reference.state());
    }
  }
}

// --- simulator-level pinning ---------------------------------------------

TegSimOptions teg_options(simd::Isa isa) {
  TegSimOptions options;
  options.rounds = 400;
  options.refill_isa = isa;
  return options;
}

TEST(SimSampling, TegResultsIdenticalAcrossRefillKernels) {
  const Mapping mapping = single_comm_mapping(3, 2);
  const TimedEventGraph graph = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  const std::vector<DistributionPtr> laws = transition_laws(graph, timing);

  Prng baseline_prng(11);
  const TegSimResult baseline =
      simulate_teg(graph, laws, baseline_prng, teg_options(simd::Isa::kScalar));
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    Prng prng(11);
    const TegSimResult result =
        simulate_teg(graph, laws, prng, teg_options(isa));
    EXPECT_EQ(result.throughput, baseline.throughput);
    EXPECT_EQ(result.in_order_throughput, baseline.in_order_throughput);
    EXPECT_EQ(result.horizon, baseline.horizon);
    // The injected stream advances identically (exactly one root draw).
    EXPECT_EQ(prng.state(), baseline_prng.state());
  }
}

TEST(SimSampling, PipelineResultsIdenticalAcrossRefillKernels) {
  const Mapping mapping = replicated_chain_mapping(2, 3, 2);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  PipelineSimOptions options;
  options.data_sets = 600;

  options.refill_isa = simd::Isa::kScalar;
  Prng baseline_prng(13);
  const PipelineSimResult baseline = simulate_pipeline(
      mapping, ExecutionModel::kOverlap, timing, baseline_prng, options);
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    options.refill_isa = isa;
    Prng prng(13);
    const PipelineSimResult result = simulate_pipeline(
        mapping, ExecutionModel::kOverlap, timing, prng, options);
    EXPECT_EQ(result.throughput, baseline.throughput);
    EXPECT_EQ(result.makespan, baseline.makespan);
    EXPECT_EQ(result.mean_latency, baseline.mean_latency);
    EXPECT_EQ(prng.state(), baseline_prng.state());
  }
}

TEST(SimSampling, AssociatedPipelineIdenticalAcrossRefillKernels) {
  const Mapping mapping = replicated_chain_mapping(2, 2, 2);
  const DistributionPtr size_law = make_gamma(2.0, 1.0);
  PipelineSimOptions options;
  options.data_sets = 500;
  for (const AssociationScope scope :
       {AssociationScope::kPerDataSet, AssociationScope::kPerStage}) {
    options.refill_isa = simd::Isa::kScalar;
    const PipelineSimResult baseline = simulate_pipeline_associated(
        mapping, ExecutionModel::kStrict, *size_law, options, scope);
    for (const simd::Isa isa : isas()) {
      SCOPED_TRACE(simd::isa_name(isa));
      options.refill_isa = isa;
      const PipelineSimResult result = simulate_pipeline_associated(
          mapping, ExecutionModel::kStrict, *size_law, options, scope);
      EXPECT_EQ(result.throughput, baseline.throughput);
      EXPECT_EQ(result.makespan, baseline.makespan);
    }
  }
}

TEST(SimSampling, BatchedSimulationMatchesTheExponentialAnalysis) {
  // The per-resource batched draws are one realization of the exponential
  // process; its long-run throughput must agree with the analytic value of
  // the same mapping within Monte-Carlo noise.
  const Mapping mapping = single_comm_mapping(4, 3);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  PipelineSimOptions options;
  options.data_sets = 40'000;
  const PipelineSimResult simulated =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, timing, options);
  const double analytic =
      exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;
  EXPECT_NEAR(simulated.throughput, analytic, 0.03 * analytic);
}

TEST(SimSampling, ReplicatedTegIdenticalAcrossKernelsAndThreads) {
  const Mapping mapping = single_comm_mapping(2, 2);
  const TimedEventGraph graph = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  const std::vector<DistributionPtr> laws = transition_laws(graph, timing);

  ExperimentOptions exp;
  exp.replications = 6;
  exp.seed = 19;
  exp.threads = 1;
  const ReplicatedResult baseline =
      run_replicated_teg(graph, laws, teg_options(simd::Isa::kScalar), exp);
  for (const simd::Isa isa : isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      exp.threads = threads;
      const ReplicatedResult result =
          run_replicated_teg(graph, laws, teg_options(isa), exp);
      ASSERT_EQ(result.per_replication.size(),
                baseline.per_replication.size());
      for (std::size_t r = 0; r < result.per_replication.size(); ++r) {
        ASSERT_EQ(result.per_replication[r], baseline.per_replication[r])
            << "replication " << r << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace streamflow
