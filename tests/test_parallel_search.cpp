// Determinism of the parallel portfolio mapping search.
//
// The contract under test (engine/parallel_search.hpp): the portfolio result
// — best mapping, scores, the whole per-restart trace, and every counter —
// is a pure function of (instance, search options). In particular it is
// bit-identical for any thread count, equal to the serial optimize_mapping,
// equal to a hand-rolled serial replay of the exposed single-restart
// primitives, unchanged in its earlier restarts when the portfolio grows,
// and ties in the reduction always resolve to the lowest restart index.
#include "engine/parallel_search.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/prng.hpp"
#include "core/analysis_context.hpp"
#include "engine/stream_factory.hpp"
#include "model/random_instance.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

/// The heterogeneous 3-stage / 7-processor instance the heuristics suite
/// pins its serial scores on: every multi-link pattern needs a real CTMC
/// solve, and random restarts genuinely move the result around.
InstancePtr heterogeneous_instance() {
  Application app({2.0, 8.0, 3.0}, {1.0, 1.0});
  Platform platform = Platform::fully_connected(
      {1.0, 1.5, 2.0, 0.8, 1.2, 2.5, 0.9}, 4.0);
  Prng prng(3);
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = p + 1; q < 7; ++q) {
      platform.set_bandwidth(p, q, 2.0 + 3.0 * prng.uniform01());
    }
  }
  return make_instance(std::move(app), std::move(platform));
}

/// Six identical processors on a homogeneous network: many restarts reach
/// the same optimum, exercising the tie-break rule.
InstancePtr symmetric_instance() {
  Application app({1.0, 12.0, 1.0}, {0.1, 0.1});
  Platform platform =
      Platform::fully_connected(std::vector<double>(6, 1.0), 100.0);
  return make_instance(std::move(app), std::move(platform));
}

MappingSearchOptions search_options(std::size_t restarts,
                                    std::uint64_t seed = 42) {
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.restarts = restarts;
  options.seed = seed;
  return options;
}

void expect_same_trace_row(const RestartResult& a, const RestartResult& b,
                           std::size_t k) {
  EXPECT_EQ(a.feasible, b.feasible) << "restart " << k;
  EXPECT_EQ(a.score, b.score) << "restart " << k;  // bitwise
  EXPECT_EQ(a.start_score, b.start_score) << "restart " << k;
  EXPECT_EQ(a.assignment, b.assignment) << "restart " << k;
  EXPECT_EQ(a.evaluations, b.evaluations) << "restart " << k;
  EXPECT_EQ(a.pattern_requests, b.pattern_requests) << "restart " << k;
}

void expect_same_result(const ParallelSearchResult& a,
                        const ParallelSearchResult& b) {
  ASSERT_EQ(a.mapping.num_stages(), b.mapping.num_stages());
  for (std::size_t i = 0; i < a.mapping.num_stages(); ++i) {
    EXPECT_EQ(a.mapping.team(i), b.mapping.team(i));
  }
  EXPECT_EQ(a.throughput, b.throughput);  // bitwise
  EXPECT_EQ(a.greedy_throughput, b.greedy_throughput);
  EXPECT_EQ(a.best_restart, b.best_restart);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.pattern_requests, b.pattern_requests);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    expect_same_trace_row(a.trace[k], b.trace[k], k);
  }
}

TEST(ParallelSearch, BitIdenticalAcrossThreadCounts) {
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = search_options(6);
  options.threads = 1;
  const ParallelSearchResult reference =
      parallel_optimize_mapping(instance, options);
  EXPECT_EQ(reference.threads_used, 1u);
  EXPECT_EQ(reference.restarts, 6u);
  for (const std::size_t threads : {2, 8}) {
    options.threads = threads;
    const ParallelSearchResult result =
        parallel_optimize_mapping(instance, options);
    EXPECT_EQ(result.threads_used, std::min<std::size_t>(threads, 6));
    expect_same_result(reference, result);
  }
}

TEST(ParallelSearch, PortfolioEqualsTheSerialSearch) {
  // The portfolio IS the serial optimize_mapping, restart for restart: same
  // mapping, bitwise-equal scores, same total evaluation count, and the same
  // number of pattern solves requested (the serial hit/miss split differs —
  // one shared cache versus per-worker caches — but the request total is
  // cache-independent).
  const InstancePtr instance = heterogeneous_instance();
  const MappingSearchOptions search = search_options(5);

  const MappingSearchResult serial = optimize_mapping(instance, search);

  for (const std::size_t threads : {1, 4}) {
    ParallelSearchOptions options;
    options.search = search;
    options.threads = threads;
    const ParallelSearchResult parallel =
        parallel_optimize_mapping(instance, options);
    ASSERT_EQ(parallel.mapping.num_stages(), serial.mapping.num_stages());
    for (std::size_t i = 0; i < serial.mapping.num_stages(); ++i) {
      EXPECT_EQ(parallel.mapping.team(i), serial.mapping.team(i));
    }
    EXPECT_EQ(parallel.throughput, serial.throughput);  // bitwise
    EXPECT_EQ(parallel.greedy_throughput, serial.greedy_throughput);
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.pattern_requests,
              serial.pattern_cache_hits + serial.pattern_cache_misses);
    EXPECT_EQ(parallel.mapping.instance().get(), instance.get());
  }
}

TEST(ParallelSearch, TraceMatchesAHandRolledSerialReplay) {
  // Replay every restart through the exposed single-restart primitives,
  // each on a fresh private context and with its start drawn from one
  // Prng(seed) in restart order — the parallel trace must match row for row
  // (trajectories, scores, and counts).
  const InstancePtr instance = heterogeneous_instance();
  const MappingSearchOptions search = search_options(5, 1234);
  ParallelSearchOptions options;
  options.search = search;
  options.threads = 4;
  const ParallelSearchResult result =
      parallel_optimize_mapping(instance, options);
  ASSERT_EQ(result.trace.size(), 5u);

  {
    AnalysisContext context;
    expect_same_trace_row(
        result.trace[0], run_greedy_restart(instance, search, context), 0);
  }
  Prng sequential(search.seed);
  for (std::size_t k = 1; k < 5; ++k) {
    AnalysisContext context;
    expect_same_trace_row(
        result.trace[k],
        run_random_restart(instance,
                           draw_restart_assignment(instance->application,
                                                   instance->platform,
                                                   sequential),
                           search, context),
        k);
  }
}

TEST(ParallelSearch, TiesResolveToTheLowestRestartIndex) {
  // On the symmetric instance many restarts reach the same best score; the
  // reduction must report the first of them, never a later one.
  const InstancePtr instance = symmetric_instance();
  ParallelSearchOptions options;
  options.search = search_options(8, 7);
  options.threads = 4;
  const ParallelSearchResult result =
      parallel_optimize_mapping(instance, options);

  double best = -std::numeric_limits<double>::infinity();
  for (const RestartResult& row : result.trace) {
    if (row.feasible && row.score > best) best = row.score;
  }
  std::size_t first_attaining = result.trace.size();
  std::size_t attaining = 0;
  for (std::size_t k = 0; k < result.trace.size(); ++k) {
    if (result.trace[k].feasible && result.trace[k].score == best) {
      ++attaining;
      first_attaining = std::min(first_attaining, k);
    }
  }
  ASSERT_GE(attaining, 2u) << "instance too asymmetric to exercise ties";
  EXPECT_EQ(result.best_restart, first_attaining);
  EXPECT_EQ(result.throughput, best);
}

TEST(ParallelSearch, GrowingThePortfolioKeepsEarlierRestarts) {
  // Starts are drawn from one Prng(seed) in restart order, so restart k is a
  // pure function of (seed, k): growing the portfolio (on any thread count)
  // never changes the restarts already computed.
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = search_options(3, 99);
  options.threads = 2;
  const ParallelSearchResult small = parallel_optimize_mapping(instance, options);

  options.search.restarts = 7;
  options.threads = 8;
  const ParallelSearchResult large = parallel_optimize_mapping(instance, options);

  ASSERT_EQ(small.trace.size(), 3u);
  ASSERT_EQ(large.trace.size(), 7u);
  for (std::size_t k = 0; k < 3; ++k) {
    expect_same_trace_row(small.trace[k], large.trace[k], k);
  }
}

TEST(ParallelSearch, AggregateStatsAreSumsOfTheTrace) {
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = search_options(6);
  options.threads = 8;
  const ParallelSearchResult result =
      parallel_optimize_mapping(instance, options);

  std::size_t evaluations = 0, requests = 0;
  for (const RestartResult& row : result.trace) {
    evaluations += row.evaluations;
    requests += row.pattern_requests;
  }
  EXPECT_EQ(result.evaluations, evaluations);
  EXPECT_EQ(result.pattern_requests, requests);
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_GT(result.pattern_requests, 0u);
}

TEST(ParallelSearch, RestartsZeroAndOneAreEquivalent) {
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = search_options(0);
  const ParallelSearchResult zero = parallel_optimize_mapping(instance, options);
  options.search.restarts = 1;
  const ParallelSearchResult one = parallel_optimize_mapping(instance, options);
  expect_same_result(zero, one);
  EXPECT_EQ(zero.restarts, 1u);
  EXPECT_EQ(zero.best_restart, 0u);
  EXPECT_EQ(zero.greedy_throughput, zero.trace[0].start_score);
}

TEST(ParallelSearch, BatchMatchesPerInstancePortfolios) {
  // Scenario rows come back in order and equal the single-instance
  // portfolio run on the same options; identical instances produce
  // identical rows under the default shared seed.
  std::vector<InstancePtr> instances{heterogeneous_instance(),
                                     symmetric_instance(),
                                     heterogeneous_instance()};
  ParallelSearchOptions options;
  options.search = search_options(4);
  options.threads = 3;
  const std::vector<ParallelSearchResult> batch =
      parallel_optimize_batch(instances, options);
  ASSERT_EQ(batch.size(), 3u);

  for (std::size_t j = 0; j < 3; ++j) {
    ParallelSearchOptions single = options;
    single.threads = 1;
    const ParallelSearchResult expected =
        parallel_optimize_mapping(instances[j], single);
    expect_same_result(batch[j], expected);
    EXPECT_EQ(batch[j].mapping.instance().get(), instances[j].get());
  }
  // Instances 0 and 2 are identical files: identical rows.
  expect_same_result(batch[0], batch[2]);
}

TEST(ParallelSearch, ScenarioStreamsDecorrelateIdenticalScenarios) {
  // With per-scenario streams, scenario j's restarts draw from the seed
  // stream advanced j long jumps: identical instance files now explore
  // different random starts (deterministically), while the whole batch
  // stays bit-identical across thread counts.
  std::vector<InstancePtr> instances{heterogeneous_instance(),
                                     heterogeneous_instance()};
  ParallelSearchOptions options;
  options.search = search_options(6, 5);
  options.scenario_streams = true;
  options.threads = 1;
  const std::vector<ParallelSearchResult> reference =
      parallel_optimize_batch(instances, options);

  // Scenario 0 is the un-jumped stream: equal to the single-instance run.
  expect_same_result(reference[0],
                     parallel_optimize_mapping(instances[0], options));

  // The random-restart traces must differ between the two scenarios (the
  // greedy restart 0 is seed-independent and stays equal).
  expect_same_trace_row(reference[0].trace[0], reference[1].trace[0], 0);
  bool any_difference = false;
  for (std::size_t k = 1; k < reference[0].trace.size(); ++k) {
    if (reference[0].trace[k].assignment != reference[1].trace[k].assignment) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "scenario streams did not decorrelate the restarts";

  for (const std::size_t threads : {2, 8}) {
    options.threads = threads;
    const std::vector<ParallelSearchResult> result =
        parallel_optimize_batch(instances, options);
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t j = 0; j < result.size(); ++j) {
      expect_same_result(result[j], reference[j]);
    }
  }
}

TEST(ParallelSearch, SharesOneInstanceAcrossWorkers) {
  // Worker-private contexts all read the SAME Instance allocation (the
  // thread-safety contract TSan verifies); after the run the only handles
  // left are the caller's and the returned mapping's.
  const InstancePtr instance = heterogeneous_instance();
  ASSERT_EQ(instance.use_count(), 1);
  ParallelSearchOptions options;
  options.search = search_options(6);
  options.threads = 4;
  const ParallelSearchResult result =
      parallel_optimize_mapping(instance, options);
  EXPECT_EQ(result.mapping.instance().get(), instance.get());
  EXPECT_EQ(instance.use_count(), 2);
}

MappingSearchOptions island_options(RestartKind kind, std::uint64_t seed = 42) {
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.kind = kind;
  options.seed = seed;
  // A tabu step probes the whole neighbourhood while an SA step probes one
  // move; keep the tabu legs short so the suite stays fast.
  options.moves_per_leg = kind == RestartKind::kTabu ? 4 : 48;
  return options;
}

TEST(ParallelSearch, IslandPortfoliosBitIdenticalAcrossThreadCounts) {
  // The metaheuristic islands inherit the portfolio determinism contract:
  // every counter and trace row is a pure function of (seed, options),
  // never of the worker-thread count — and the greedy-seeded island 0
  // keeps the result from ever falling below the greedy baseline.
  const InstancePtr instance = heterogeneous_instance();
  for (const RestartKind kind :
       {RestartKind::kAnnealing, RestartKind::kTabu}) {
    ParallelSearchOptions options;
    options.search = island_options(kind);
    options.islands = 4;
    options.sync_rounds = 3;
    options.threads = 1;
    const ParallelSearchResult reference =
        parallel_optimize_mapping(instance, options);
    EXPECT_EQ(reference.restarts, 4u);
    EXPECT_GE(reference.throughput, reference.greedy_throughput);
    for (const std::size_t threads : {2, 4, 8}) {
      options.threads = threads;
      expect_same_result(reference,
                         parallel_optimize_mapping(instance, options));
    }
  }
}

TEST(ParallelSearch, IslandStartsReplayFromSubstreams) {
  // Island 0 enters with the greedy construction; island k >= 1 enters with
  // the assignment drawn from StreamFactory substream k — a pure function
  // of (seed, k). trace[k].start_score pins the entry score of the first
  // feasible leg, so replaying the draw by hand must reproduce it bitwise.
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = island_options(RestartKind::kAnnealing, 99);
  options.islands = 4;
  options.sync_rounds = 2;
  options.threads = 2;
  const ParallelSearchResult result =
      parallel_optimize_mapping(instance, options);
  ASSERT_EQ(result.trace.size(), 4u);

  {
    AnalysisContext context;
    const RestartResult greedy =
        run_greedy_restart(instance, options.search, context);
    EXPECT_EQ(result.trace[0].start_score, greedy.start_score);
    EXPECT_EQ(result.greedy_throughput, greedy.start_score);
  }
  StreamFactory factory(options.search.seed);
  for (std::size_t k = 1; k < 4; ++k) {
    Prng stream = factory.stream(k);
    StageAssignment start = draw_restart_assignment(
        instance->application, instance->platform, stream);
    AnalysisContext context;
    const RestartResult replay = run_random_restart(
        instance, std::move(start), search_options(1, 99), context);
    ASSERT_TRUE(replay.feasible) << "island " << k;
    EXPECT_EQ(result.trace[k].start_score, replay.start_score)
        << "island " << k;
  }
}

TEST(ParallelSearch, IslandStartScoresHaveThePrefixProperty) {
  // The exchange ring depends on the island count, so full trajectories may
  // differ — but each island's ENTRY stays a pure function of (seed, k):
  // growing the archipelago never changes where an existing island starts.
  const InstancePtr instance = heterogeneous_instance();
  ParallelSearchOptions options;
  options.search = island_options(RestartKind::kTabu, 7);
  options.islands = 3;
  options.sync_rounds = 2;
  options.threads = 4;
  const ParallelSearchResult small =
      parallel_optimize_mapping(instance, options);
  options.islands = 5;
  const ParallelSearchResult large =
      parallel_optimize_mapping(instance, options);
  ASSERT_EQ(small.trace.size(), 3u);
  ASSERT_EQ(large.trace.size(), 5u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(small.trace[k].start_score, large.trace[k].start_score)
        << "island " << k;
  }
}

TEST(ParallelSearch, ScreenedIslandsMatchUnscreenedBitwise) {
  // The bound screens may not disturb a single metaheuristic decision: a
  // pruned probe is proven unable to beat the acceptance threshold, so the
  // accept/reject sequence — and with it the mapping, the score, and the
  // evaluation counters — is bit-identical with screening on. Only the
  // exact-solve split moves: solved probes become pruned ones.
  const InstancePtr instance = heterogeneous_instance();
  for (const RestartKind kind :
       {RestartKind::kAnnealing, RestartKind::kTabu}) {
    ParallelSearchOptions options;
    options.search = island_options(kind, 5);
    options.islands = 3;
    options.sync_rounds = 2;
    options.threads = 2;
    const ParallelSearchResult plain =
        parallel_optimize_mapping(instance, options);
    options.search.bounds = BoundPolicy::kMctMaxplus;
    const ParallelSearchResult screened =
        parallel_optimize_mapping(instance, options);

    ASSERT_EQ(screened.mapping.num_stages(), plain.mapping.num_stages());
    for (std::size_t i = 0; i < plain.mapping.num_stages(); ++i) {
      EXPECT_EQ(screened.mapping.team(i), plain.mapping.team(i));
    }
    EXPECT_EQ(screened.throughput, plain.throughput);  // bitwise
    EXPECT_EQ(screened.best_restart, plain.best_restart);
    EXPECT_EQ(screened.evaluations, plain.evaluations);
    EXPECT_EQ(plain.moves_pruned_mct + plain.moves_pruned_maxplus, 0u);
    EXPECT_EQ(screened.moves_solved + screened.moves_pruned_mct +
                  screened.moves_pruned_maxplus,
              plain.moves_solved);
    EXPECT_GT(screened.moves_pruned_mct + screened.moves_pruned_maxplus, 0u);
  }
}

TEST(ParallelSearch, Validation) {
  EXPECT_THROW(parallel_optimize_mapping(nullptr, ParallelSearchOptions{}),
               InvalidArgument);
  EXPECT_THROW(parallel_optimize_batch({}, ParallelSearchOptions{}),
               InvalidArgument);

  // Option errors surface on the caller's thread, before any fan-out.
  ParallelSearchOptions bad;
  bad.search.model = ExecutionModel::kStrict;
  bad.search.objective = MappingObjective::kExponential;
  EXPECT_THROW(parallel_optimize_mapping(heterogeneous_instance(), bad),
               InvalidArgument);

  // Degenerate island shapes are rejected up front, and the batch axis
  // requires the greedy kind (islands run per instance).
  ParallelSearchOptions zero_islands;
  zero_islands.search.kind = RestartKind::kTabu;
  zero_islands.islands = 0;
  EXPECT_THROW(parallel_optimize_mapping(heterogeneous_instance(), zero_islands),
               InvalidArgument);
  ParallelSearchOptions zero_rounds;
  zero_rounds.search.kind = RestartKind::kAnnealing;
  zero_rounds.sync_rounds = 0;
  EXPECT_THROW(parallel_optimize_mapping(heterogeneous_instance(), zero_rounds),
               InvalidArgument);
  ParallelSearchOptions island_batch;
  island_batch.search.kind = RestartKind::kAnnealing;
  EXPECT_THROW(
      parallel_optimize_batch({heterogeneous_instance()}, island_batch),
      InvalidArgument);
}

TEST(ParallelSearch, NoFeasibleMappingFailsClosed) {
  // Random instances link only consecutive teams of their own mapping, so
  // on many of them no restart reaches a feasible assignment. Both search
  // entry points must then throw the documented InvalidArgument — never an
  // internal invariant failure — and otherwise return a feasible mapping.
  RandomInstanceOptions generator;
  generator.num_stages = 4;
  generator.num_processors = 8;
  std::size_t found = 0;
  std::size_t rejected = 0;
  for (std::uint64_t k = 0; k < 30; ++k) {
    Prng prng = Prng(7).split(k);
    const InstancePtr instance = random_instance(generator, prng).instance();
    ParallelSearchOptions options;
    options.search.restarts = 4;
    options.threads = 2;
    const auto outcome = [&](auto&& search) {
      try {
        // A Mapping exists only once its teams validated on the platform.
        const Mapping mapping = search();
        EXPECT_LE(mapping.num_paths(), options.search.max_paths)
            << "instance " << k;
        return true;
      } catch (const InvalidArgument& error) {
        EXPECT_STREQ(error.what(), "no restart reached a feasible mapping")
            << "instance " << k;
        return false;
      }
    };
    const bool parallel = outcome(
        [&] { return parallel_optimize_mapping(instance, options).mapping; });
    const bool serial = outcome(
        [&] { return optimize_mapping(instance, options.search).mapping; });
    EXPECT_EQ(parallel, serial) << "instance " << k;
    ++(parallel ? found : rejected);
  }
  // Both outcomes are exercised, so neither branch is vacuous.
  EXPECT_GT(found, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace streamflow
