// Determinism and statistics of the parallel Monte-Carlo experiment engine.
//
// The contract under test: ExperimentRunner output is a pure function of
// (seed, replications, body) — bit-identical for any thread count, equal to
// a hand-rolled serial loop over the same substreams, with CI half-widths
// shrinking like 1/sqrt(R). Underneath, ThreadPool::for_each runs every
// index once and reports the lowest failing index's exception.
#include "engine/experiment_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristics.hpp"
#include "engine/parallel_search.hpp"
#include "engine/sim_replication.hpp"
#include "engine/stream_factory.hpp"
#include "engine/thread_pool.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

/// A cheap stochastic body: mean and max of 1,000 exponential draws.
std::vector<double> toy_body(Prng& prng, std::size_t /*replication*/) {
  double sum = 0.0, max = 0.0;
  for (int i = 0; i < 1'000; ++i) {
    const double x = prng.exponential(2.0);
    sum += x;
    max = std::max(max, x);
  }
  return {sum / 1'000.0, max};
}

ExperimentOptions experiment(std::size_t replications, std::size_t threads,
                             std::uint64_t seed = 0xFEED) {
  ExperimentOptions options;
  options.replications = replications;
  options.threads = threads;
  options.seed = seed;
  return options;
}

TEST(ExperimentRunner, BitIdenticalAcrossThreadCounts) {
  const std::vector<std::string> metrics{"mean", "max"};
  ReplicatedResult reference;
  for (const std::size_t threads : {1, 2, 8}) {
    ExperimentRunner runner(experiment(16, threads));
    const ReplicatedResult result = runner.run(metrics, toy_body);
    EXPECT_EQ(result.threads_used, std::min<std::size_t>(threads, 16));
    if (threads == 1) {
      reference = result;
      continue;
    }
    ASSERT_EQ(result.per_replication.size(),
              reference.per_replication.size());
    for (std::size_t k = 0; k < result.per_replication.size(); ++k)
      EXPECT_EQ(result.per_replication[k], reference.per_replication[k])
          << "replication " << k << " with " << threads << " threads";
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      // Aggregation is serial in replication order, so summaries are
      // bit-identical too, not merely close.
      EXPECT_EQ(result.summaries[m].mean, reference.summaries[m].mean);
      EXPECT_EQ(result.summaries[m].stddev, reference.summaries[m].stddev);
      EXPECT_EQ(result.summaries[m].min, reference.summaries[m].min);
      EXPECT_EQ(result.summaries[m].max, reference.summaries[m].max);
    }
  }
}

TEST(ExperimentRunner, EqualsHandRolledSerialLoopOverSubstreams) {
  ExperimentRunner runner(experiment(12, 4, 777));
  const ReplicatedResult result = runner.run({"mean", "max"}, toy_body);

  StreamFactory factory(777);
  for (std::size_t k = 0; k < 12; ++k) {
    Prng prng = factory.stream(k);
    const std::vector<double> expected = toy_body(prng, k);
    EXPECT_EQ(result.per_replication[k], expected) << "replication " << k;
  }
}

TEST(ExperimentRunner, SmallerRunIsAPrefixOfALargerOne) {
  // Replication k always consumes substream k, so shrinking R keeps the
  // surviving rows bit-identical — experiments can be extended without
  // invalidating earlier replications.
  ExperimentRunner small(experiment(4, 2));
  ExperimentRunner large(experiment(16, 8));
  const ReplicatedResult a = small.run({"mean", "max"}, toy_body);
  const ReplicatedResult b = large.run({"mean", "max"}, toy_body);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(a.per_replication[k], b.per_replication[k]);
}

TEST(ExperimentRunner, CiHalfWidthShrinksLikeOneOverSqrtR) {
  // The stddev estimate is very noisy at R = 4 (relative error ~40%), so
  // average the CI half-width over several independent experiment seeds
  // before checking the 1/sqrt(R) law.
  const std::vector<std::string> metrics{"mean", "max"};
  std::vector<double> ci;
  for (const std::size_t r : {4, 16, 64}) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ExperimentRunner runner(experiment(r, 0, 0xC1 + seed));
      total += runner.run(metrics, toy_body).metric("mean").ci95_halfwidth;
    }
    ci.push_back(total / 8.0);
  }
  EXPECT_LT(ci[1], ci[0]);
  EXPECT_LT(ci[2], ci[1]);
  // The 16x increase in R shrinks the averaged CI by about sqrt(16) = 4,
  // stretched further by the Student-t factor: at R = 4 the 97.5% quantile
  // is 3.182 while at R = 64 it is 1.96, so the expected ratio is about
  // 4 * 3.182 / 1.96 = 6.5.
  const double shrink = ci[0] / ci[2];
  EXPECT_GT(shrink, 4.0);
  EXPECT_LT(shrink, 10.5);
}

TEST(ExperimentRunner, PipelineReplicasBitIdenticalAcrossThreadCounts) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  PipelineSimOptions sim;
  sim.data_sets = 2'000;

  ReplicatedResult reference;
  for (const std::size_t threads : {1, 2, 8}) {
    const ReplicatedResult result = run_replicated_pipeline(
        mapping, ExecutionModel::kOverlap, timing, sim,
        experiment(8, threads, 0xABCD));
    if (threads == 1) {
      reference = result;
      continue;
    }
    for (std::size_t k = 0; k < 8; ++k)
      EXPECT_EQ(result.per_replication[k], reference.per_replication[k])
          << "replication " << k << " with " << threads << " threads";
  }
  // And the parallel result equals serial injected-Prng simulation calls.
  StreamFactory factory(0xABCD);
  for (std::size_t k = 0; k < 8; ++k) {
    Prng prng = factory.stream(k);
    const PipelineSimResult expected = simulate_pipeline(
        mapping, ExecutionModel::kOverlap, timing, prng, sim);
    EXPECT_EQ(reference.per_replication[k][0], expected.throughput);
    EXPECT_EQ(reference.per_replication[k][4], expected.makespan);
  }
}

TEST(ExperimentRunner, TegReplicasBitIdenticalAcrossThreadCounts) {
  const Mapping mapping = testing::replicated_chain_mapping(1, 2, 1, 2.0, 1.0);
  const TimedEventGraph graph = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  const std::vector<DistributionPtr> laws = transition_laws(graph, timing);
  TegSimOptions sim;
  sim.rounds = 500;

  ReplicatedResult reference;
  for (const std::size_t threads : {1, 2, 8}) {
    const ReplicatedResult result = run_replicated_teg(
        graph, laws, sim, experiment(8, threads, 0xBEE));
    if (threads == 1) {
      reference = result;
      continue;
    }
    for (std::size_t k = 0; k < 8; ++k)
      EXPECT_EQ(result.per_replication[k], reference.per_replication[k])
          << "replication " << k << " with " << threads << " threads";
  }
}

TEST(ExperimentRunner, ReplicatedSearchSharesOneInstanceAcrossThreads) {
  // The shared immutable instance must be safe to read from every pool
  // thread at once (this is what makes the by-value -> shared_ptr Mapping
  // refactor thread-correct, and what the TSan CI job exercises): fan a
  // replicated mapping search over the pool, every replication reading the
  // SAME Instance allocation through its own AnalysisContext. Results must
  // be bit-identical across replications and thread counts, and identical
  // to a serial search.
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  const InstancePtr instance = make_instance(std::move(app),
                                             std::move(platform));
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = 2;

  auto search_body = [&](Prng& prng, std::size_t) -> std::vector<double> {
    // Each replication searches with its own seed (drawn from its
    // substream) on its own thread, with its own contexts, but reads the
    // shared instance concurrently.
    ParallelSearchOptions local;
    local.search = options;
    local.search.seed = prng();
    local.threads = 1;
    const auto result = parallel_optimize_mapping(instance, local);
    SF_ASSERT(result.mapping.instance().get() == instance.get(),
              "search copied the shared instance");
    return {result.throughput, static_cast<double>(result.evaluations)};
  };

  ReplicatedResult reference;
  for (const std::size_t threads : {1, 4}) {
    const ReplicatedResult result =
        ExperimentRunner(experiment(6, threads, 0xD15C))
            .run({"throughput", "evaluations"}, search_body);
    if (threads == 1) {
      reference = result;
      continue;
    }
    for (std::size_t k = 0; k < 6; ++k)
      EXPECT_EQ(result.per_replication[k], reference.per_replication[k])
          << "replication " << k << " with " << threads << " threads";
  }
  // The instance survives the fan-out with only our handle left.
  EXPECT_EQ(instance.use_count(), 1);
}

TEST(ExperimentRunner, Validation) {
  ExperimentOptions zero_replications;
  zero_replications.replications = 0;
  EXPECT_THROW(ExperimentRunner{zero_replications}, InvalidArgument);

  ExperimentRunner runner{experiment(4, 2)};
  EXPECT_THROW(runner.run({}, toy_body), InvalidArgument);
  EXPECT_THROW(runner.run({"mean"}, ReplicationBody{}), InvalidArgument);
  // A body returning the wrong row width is rejected.
  EXPECT_THROW(
      runner.run({"a", "b", "c"},
                 [](Prng&, std::size_t) { return std::vector<double>{1.0}; }),
      InvalidArgument);
}

TEST(ExperimentRunner, WorkerExceptionsPropagateToCaller) {
  // Two replications fail with different messages, the lower one after a
  // delay, so on several threads replication 6 usually fails first in
  // time. Whatever the thread count, the caller sees replication 1's error
  // — the one a serial loop would throw.
  for (const std::size_t threads : {1, 2, 4, 8}) {
    for (int repeat = 0; repeat < 20; ++repeat) {
      ExperimentRunner runner(experiment(8, threads));
      try {
        runner.run({"x"}, [](Prng& prng, std::size_t k) -> std::vector<double> {
          if (k == 1) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            throw NumericalError("boom in replication 1");
          }
          if (k == 6) throw NumericalError("boom in replication 6");
          return {prng.uniform01()};
        });
        ADD_FAILURE() << "no exception with " << threads << " threads";
      } catch (const NumericalError& error) {
        EXPECT_STREQ(error.what(), "boom in replication 1")
            << threads << " threads, repeat " << repeat;
      }
    }
  }
}

TEST(ThreadPool, ForEachRunsEveryIndexOnceOnAValidWorker) {
  constexpr std::size_t kCount = 37;
  for (const std::size_t size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    ASSERT_EQ(pool.size(), size);
    for (int repeat = 0; repeat < 20; ++repeat) {
      // Each index writes only its own slot, so the slots need no lock.
      std::vector<std::size_t> runs(kCount, 0);
      std::vector<std::size_t> workers(kCount, 0);
      pool.for_each(kCount, [&](std::size_t worker, std::size_t k) {
        ++runs[k];
        workers[k] = worker;
      });
      for (std::size_t k = 0; k < kCount; ++k) {
        EXPECT_EQ(runs[k], 1u) << "size " << size << ", index " << k;
        EXPECT_LT(workers[k], size) << "size " << size << ", index " << k;
      }
    }
    // Degenerate counts run nothing, or the single index on the caller.
    pool.for_each(0, [](std::size_t, std::size_t) {
      ADD_FAILURE() << "body ran for count 0";
    });
    std::size_t single_worker = size;
    pool.for_each(1, [&](std::size_t worker, std::size_t k) {
      EXPECT_EQ(k, 0u);
      single_worker = worker;
    });
    EXPECT_EQ(single_worker, 0u);
  }
}

TEST(ThreadPool, ForEachRethrowsTheLowestFailingIndex) {
  // Index 11 fails at once, index 3 only after a delay, so on a multi-worker
  // pool index 11 usually fails first in time; index 3's error must still
  // be the one rethrown. The pool stays usable afterwards.
  for (const std::size_t size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    for (int repeat = 0; repeat < 20; ++repeat) {
      try {
        pool.for_each(16, [](std::size_t, std::size_t k) {
          if (k == 3) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            throw std::runtime_error("index 3");
          }
          if (k == 11) throw std::runtime_error("index 11");
        });
        ADD_FAILURE() << "no exception at size " << size;
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "index 3")
            << "size " << size << ", repeat " << repeat;
      }
      std::vector<int> ran(16, 0);
      pool.for_each(16, [&](std::size_t, std::size_t k) { ran[k] = 1; });
      EXPECT_EQ(ran, std::vector<int>(16, 1)) << "size " << size;
    }
  }
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(ExperimentRunner, InvalidSimOptionsFailBeforeFanOut) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const StochasticTiming timing = StochasticTiming::deterministic(mapping);
  PipelineSimOptions bad;
  bad.warmup_fraction = 1.5;
  EXPECT_THROW(run_replicated_pipeline(mapping, ExecutionModel::kOverlap,
                                       timing, bad, experiment(4, 2)),
               InvalidArgument);
}

}  // namespace
}  // namespace streamflow
