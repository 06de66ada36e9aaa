// Concurrency battery for PatternStore
// (core/pattern_store.hpp) and its AnalysisContext integration.
//
// What is pinned here:
//  * exact hit/miss/publish/duplicate accounting — under one thread AND
//    under N threads hammering disjoint or overlapping signature sets
//    (the counters are maintained under the store's lock, so they are
//    exact, not sampled);
//  * bit-identity: a store hit returns the bits a local solve would have
//    produced, a warm-store search equals the cold-store search equals
//    the storeless search, serial and parallel, any thread count;
//  * the Debug cross-context agreement probe: a deliberately staled store
//    entry (transform_rates) trips the re-solve assertion;
//  * snapshot persistence: byte-stable save, digest-validated load,
//    negative fixtures (version skew, truncation, corrupted digest), and
//    load-from-missing-path as a cold start.
#include "core/pattern_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/analysis_context.hpp"
#include "core/heuristics.hpp"
#include "engine/parallel_search.hpp"
#include "model/mapping.hpp"
#include "tpn/columns.hpp"

#ifndef STREAMFLOW_FIXTURE_DIR
#define STREAMFLOW_FIXTURE_DIR "tests/fixtures"
#endif

namespace streamflow {
namespace {

/// Synthetic signature k: distinct for distinct k, deterministic.
PatternSignature synthetic_signature(std::uint64_t k) {
  PatternSignature signature;
  signature.u = 2;
  signature.v = 3;
  signature.duration_bits = {k * 0x9E3779B97F4A7C15ull + 1,
                             k ^ 0xABCDEFull,
                             k + 7,
                             k * 5,
                             ~k,
                             k + 0x100};
  return signature;
}

/// Synthetic (deterministic) rate for signature k, so concurrent
/// publishers of the same signature always agree — the contract real
/// solves satisfy by construction.
double synthetic_rate(std::uint64_t k) {
  return 1.0 + static_cast<double>(k) / 3.0;
}

/// A mapping whose middle communication crosses teams of coprime sizes
/// (2 -> 3) over links with distinct bandwidths: its comm patterns are
/// heterogeneous (u = 2, v = 3, six distinct durations), so evaluating it
/// exercises real CTMC pattern solves, not the homogeneous closed form.
Mapping heterogeneous_mapping() {
  Application application({2.0, 6.0, 4.0, 1.0}, {1.0, 3.0, 1.0});
  std::vector<double> speeds{2.0, 1.5, 1.0, 1.2, 0.8, 1.1, 2.5};
  Platform platform{std::move(speeds)};
  double bandwidth = 0.6;
  for (std::size_t p = 0; p < 7; ++p) {
    for (std::size_t q = p + 1; q < 7; ++q) {
      platform.set_bandwidth(p, q, bandwidth);
      bandwidth += 0.1;
    }
  }
  return Mapping(make_instance(application, platform),
                 {{0}, {1, 2}, {3, 4, 5}, {6}});
}

std::string fixture_path(const std::string& name) {
  return std::string(STREAMFLOW_FIXTURE_DIR) + "/pattern_store/" + name;
}

TEST(PatternStore, HitMissAccountingIsExact) {
  PatternStore store;
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_FALSE(store.lookup(synthetic_signature(0)).has_value());
  store.publish(synthetic_signature(0), synthetic_rate(0));
  store.publish(synthetic_signature(1), synthetic_rate(1));
  const auto hit = store.lookup(synthetic_signature(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, synthetic_rate(0));
  EXPECT_FALSE(store.lookup(synthetic_signature(2)).has_value());

  const PatternStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(PatternStore, FirstWriterWinsAndDisagreementAsserts) {
  PatternStore store;
  store.publish(synthetic_signature(5), synthetic_rate(5));
  // Agreement: counted as a duplicate, entry untouched.
  store.publish(synthetic_signature(5), synthetic_rate(5));
  EXPECT_EQ(store.stats().duplicates, 1u);
  EXPECT_EQ(store.stats().entries, 1u);
  // Disagreement violates the solve-determinism contract and must throw.
  EXPECT_THROW(
      store.publish(synthetic_signature(5), synthetic_rate(5) + 1e-9),
      InvalidArgument);
}

TEST(PatternStore, ConcurrentDisjointSetsCountExactly) {
  const std::size_t kThreads = 8;
  const std::uint64_t kPerThread = 200;
  PatternStore store;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (std::uint64_t k = 0; k < kPerThread; ++k) {
        const std::uint64_t id = t * kPerThread + k;
        const PatternSignature signature = synthetic_signature(id);
        EXPECT_FALSE(store.lookup(signature).has_value());
        store.publish(signature, synthetic_rate(id));
        const auto hit = store.lookup(signature);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, synthetic_rate(id));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const PatternStoreStats stats = store.stats();
  const std::size_t expected = kThreads * kPerThread;
  EXPECT_EQ(stats.misses, expected);
  EXPECT_EQ(stats.hits, expected);
  EXPECT_EQ(stats.publishes, expected);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.entries, expected);
}

TEST(PatternStore, ConcurrentOverlappingSetsAgreeBitExactly) {
  const std::size_t kThreads = 8;
  const std::uint64_t kShared = 64;
  const std::size_t kRounds = 3;
  PatternStore store;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::uint64_t k = 0; k < kShared; ++k) {
          const PatternSignature signature = synthetic_signature(k);
          const auto cached = store.lookup(signature);
          if (cached.has_value()) {
            EXPECT_EQ(*cached, synthetic_rate(k));
          } else {
            store.publish(signature, synthetic_rate(k));
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const PatternStoreStats stats = store.stats();
  // The hit/miss split depends on interleaving; the totals do not.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * kShared);
  EXPECT_EQ(stats.entries, kShared);
  // Every miss triggered exactly one publish call, first writer won.
  EXPECT_EQ(stats.publishes, kShared);
  EXPECT_EQ(stats.publishes + stats.duplicates, stats.misses);
}

// ---- AnalysisContext integration -------------------------------------------

TEST(PatternStoreContext, StoreHitReturnsSolveBits) {
  const Mapping mapping = heterogeneous_mapping();
  const std::vector<CommPattern> patterns = comm_patterns(mapping, 1);
  ASSERT_FALSE(patterns.empty());
  ASSERT_FALSE(patterns.front().homogeneous());

  // Reference: no store attached, so the context reads its own.
  AnalysisContext reference;
  std::vector<double> expected;
  for (const CommPattern& pattern : patterns) {
    expected.push_back(reference.pattern_rate(pattern));
  }

  PatternStore store;
  AnalysisContext writer;
  writer.set_pattern_store(&store);
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    EXPECT_EQ(writer.pattern_rate(patterns[k]), expected[k]);
  }
  EXPECT_GT(store.stats().entries, 0u);
  // A cold attached store counts exactly as the reference's own store did,
  // and every solve was published into it.
  EXPECT_EQ(writer.stats().pattern_misses, store.stats().entries);
  EXPECT_EQ(writer.stats().pattern_hits, reference.stats().pattern_hits);
  EXPECT_EQ(store.stats().publishes, store.stats().entries);

  // A second context sees the first one's solves as store hits — and the
  // hits must be bit-identical to the solves above.
  AnalysisContext reader;
  reader.set_pattern_store(&store);
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    EXPECT_EQ(reader.pattern_rate(patterns[k]), expected[k]);
  }
  EXPECT_GT(reader.stats().pattern_hits, 0u);
  EXPECT_EQ(reader.stats().pattern_misses, 0u);
  EXPECT_EQ(store.stats().publishes, store.stats().entries);
  // hits + misses stays cache-state invariant across all three contexts.
  EXPECT_EQ(reader.stats().pattern_hits + reader.stats().pattern_misses,
            reference.stats().pattern_hits + reference.stats().pattern_misses);
}

TEST(PatternStoreContext, StaleStoreEntryIsDetected) {
  const Mapping mapping = heterogeneous_mapping();
  const std::vector<CommPattern> patterns = comm_patterns(mapping, 1);
  ASSERT_FALSE(patterns.empty());

  PatternStore store;
  AnalysisContext writer;
  writer.set_pattern_store(&store);
  const double honest = writer.pattern_rate(patterns.front());
  ASSERT_GT(store.stats().entries, 0u);

  // Fault injection: stale every stored rate by one ulp. The store now
  // violates the solve-determinism contract its hits rely on.
  store.transform_rates(
      [](double rate) { return std::nextafter(rate, 2.0 * rate + 1.0); });

  AnalysisContext reader;
  reader.set_pattern_store(&store);
#ifndef NDEBUG
  // Debug: the sampled re-solve probe checks the FIRST hit of a context,
  // so the staleness trips the assertion immediately.
  EXPECT_THROW(reader.pattern_rate(patterns.front()), InvalidArgument);
#else
  // Release: the stale bits flow through — proving the Debug probe is
  // what detects this class of corruption (and why the fuzz harness's
  // shared-store check compares full component vectors).
  EXPECT_NE(reader.pattern_rate(patterns.front()), honest);
#endif

  // Detaching goes back to the context's own store, which never held the
  // stale entry: the pattern is solved afresh.
  reader.set_pattern_store(nullptr);
  EXPECT_EQ(reader.pattern_rate(patterns.front()), honest);
  EXPECT_EQ(reader.stats().pattern_misses, 1u);
}

// ---- Warm-store search bit-identity ----------------------------------------

TEST(PatternStoreSearch, WarmStoreSearchIsBitIdentical) {
  // One greedy restart (construction plus local search) through a context
  // reading its own store, then through contexts attached to a cold and a
  // warm shared store.
  const Mapping mapping = heterogeneous_mapping();
  MappingSearchOptions search;
  search.seed = 7;

  AnalysisContext private_only;
  const RestartResult baseline =
      run_greedy_restart(mapping.instance(), search, private_only);

  PatternStore store;
  AnalysisContext cold;
  cold.set_pattern_store(&store);
  const RestartResult via_cold_store =
      run_greedy_restart(mapping.instance(), search, cold);
  EXPECT_GT(store.stats().entries, 0u);

  AnalysisContext warm;
  warm.set_pattern_store(&store);
  const RestartResult via_warm_store =
      run_greedy_restart(mapping.instance(), search, warm);
  EXPECT_EQ(warm.stats().pattern_misses, 0u);

  for (const RestartResult* result : {&via_cold_store, &via_warm_store}) {
    EXPECT_EQ(result->score, baseline.score);
    EXPECT_EQ(result->evaluations, baseline.evaluations);
    EXPECT_EQ(result->assignment, baseline.assignment);
    EXPECT_EQ(result->pattern_requests, baseline.pattern_requests);
  }
}

TEST(PatternStoreSearch, ParallelPortfolioWithStoreIsBitIdentical) {
  const Mapping mapping = heterogeneous_mapping();
  ParallelSearchOptions options;
  options.search.restarts = 3;
  options.search.seed = 11;
  options.threads = 1;

  const ParallelSearchResult baseline =
      parallel_optimize_mapping(mapping.instance(), options);

  PatternStore store;
  options.pattern_store = &store;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    // Two passes per thread count: the second runs against the warm store.
    for (int pass = 0; pass < 2; ++pass) {
      const ParallelSearchResult shared =
          parallel_optimize_mapping(mapping.instance(), options);
      EXPECT_EQ(shared.throughput, baseline.throughput)
          << threads << " threads, pass " << pass;
      EXPECT_EQ(shared.evaluations, baseline.evaluations);
      EXPECT_EQ(shared.pattern_requests, baseline.pattern_requests);
      EXPECT_EQ(shared.mapping.to_string(), baseline.mapping.to_string());
      EXPECT_EQ(shared.best_restart, baseline.best_restart);
    }
  }
  EXPECT_GT(store.stats().entries, 0u);
}

// ---- Snapshots --------------------------------------------------------------

TEST(PatternStoreSnapshot, RoundTripIsByteStableAndDigestEqual) {
  PatternStore store;
  // Tricky doubles: snapshots must round-trip BITS, not decimal text.
  const double rates[] = {1.0 / 3.0, 0.1, 1e-300, 6.02e23,
                          std::nextafter(1.0, 2.0)};
  for (std::uint64_t k = 0; k < 5; ++k) {
    store.publish(synthetic_signature(k), rates[k]);
  }

  std::ostringstream first;
  store.save(first);

  // Load into a fresh store: the snapshot is canonical, so insertion order
  // and hash layout must be invisible.
  PatternStore reloaded;
  EXPECT_EQ(reloaded.load(first.str()), 5u);
  EXPECT_EQ(reloaded.digest(), store.digest());
  for (std::uint64_t k = 0; k < 5; ++k) {
    const auto hit = reloaded.lookup(synthetic_signature(k));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, rates[k]);
  }

  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(PatternStoreSnapshot, LoadMergesAndRejectsConflicts) {
  PatternStore source;
  source.publish(synthetic_signature(1), synthetic_rate(1));
  std::ostringstream snapshot;
  source.save(snapshot);

  // Merging into a store that already agrees: counted as a duplicate.
  PatternStore agreeing;
  agreeing.publish(synthetic_signature(1), synthetic_rate(1));
  EXPECT_EQ(agreeing.load(snapshot.str()), 1u);
  EXPECT_EQ(agreeing.stats().entries, 1u);
  EXPECT_EQ(agreeing.stats().duplicates, 1u);

  // Merging into a store that disagrees: the determinism contract is
  // violated somewhere — refuse.
  PatternStore disagreeing;
  disagreeing.publish(synthetic_signature(1), synthetic_rate(1) + 1e-9);
  EXPECT_THROW(disagreeing.load(snapshot.str()), InvalidArgument);
}

TEST(PatternStoreSnapshot, NegativeFixturesAreRejectedWithDiagnostics) {
  const auto load_fixture = [](const std::string& name) {
    PatternStore store;
    return store.load_file(fixture_path(name));
  };
  const auto message_of = [&](const std::string& name) {
    try {
      load_fixture(name);
    } catch (const InvalidArgument& error) {
      return std::string(error.what());
    }
    return std::string("NO THROW");
  };
  EXPECT_NE(message_of("bad_version.snapshot").find("unsupported snapshot "
                                                    "version 'v9'"),
            std::string::npos);
  EXPECT_NE(message_of("truncated.snapshot").find("truncated"),
            std::string::npos);
  EXPECT_NE(message_of("corrupt_digest.snapshot").find("digest mismatch"),
            std::string::npos);
  // Hex bit patterns are 1-16 hex digits: no sign and no 0x. std::stoull
  // read "-1" as ffffffffffffffff and "0x12" as 12, and the fixture's
  // digest matches that reading, so it used to load without a word.
  EXPECT_NE(message_of("signed_hex.snapshot")
                .find("line 3, column 13: malformed duration bits"),
            std::string::npos);
  // A 1 x 2 pattern has two link durations; a row with one matches no
  // signature, even under a digest that agrees with it.
  EXPECT_NE(message_of("wrong_duration_count.snapshot")
                .find("line 3, column 11: malformed entry 'entry 1 2 1 "),
            std::string::npos);
}

TEST(PatternStoreSnapshot, MissingPathIsAColdStart) {
  PatternStore store;
  EXPECT_EQ(store.load_file(fixture_path("does_not_exist.snapshot")), 0u);
  EXPECT_EQ(store.stats().entries, 0u);
}

}  // namespace
}  // namespace streamflow
