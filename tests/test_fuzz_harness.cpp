// Mutation-style negative tests for the differential harness
// (fuzz/diff_harness.hpp): each of the six cross-checks must actually FAIL
// when its evaluator is skewed through a HarnessHooks shim — the guard
// against a vacuously green harness — and every divergence must be reported
// and minimized into a replayable fixture. Also pins the library-level
// determinism contract: digest and full JSON identical across thread counts.
#include "fuzz/diff_harness.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/analyzer.hpp"
#include "engine/parallel_search.hpp"
#include "fuzz/minimize.hpp"

namespace streamflow {
namespace {

/// Small-but-honest statistics: the checks hold with real evaluators at
/// these sizes (verified below), so a FAIL under a skewed hook is the
/// hook's doing, not noise.
HarnessOptions fast_options() {
  HarnessOptions options;
  options.count = 2;
  options.replications = 4;
  options.data_sets = 1500;
  return options;
}

/// The true search score, one ulp up: the literal off-by-epsilon fault.
double one_ulp_above_search(const InstancePtr& instance,
                            const MappingSearchOptions& search) {
  ParallelSearchOptions portfolio;
  portfolio.search = search;
  portfolio.threads = 1;
  const double score =
      parallel_optimize_mapping(instance, portfolio).throughput;
  return std::nextafter(score, 2.0 * score + 1.0);
}

TEST(FuzzHarness, AllChecksPassWithHonestEvaluators) {
  const HarnessOptions options = fast_options();
  for (std::uint64_t k = 0; k < 5; ++k) {
    const Scenario scenario = draw_scenario(options.corpus, k);
    const ScenarioVerdict verdict = check_scenario(scenario, options);
    for (std::size_t c = 0; c < kNumChecks; ++c) {
      EXPECT_NE(verdict.checks[c].status, CheckStatus::kFail)
          << scenario.label() << " " << to_string(static_cast<CheckId>(c))
          << ": " << verdict.checks[c].detail;
    }
  }
}

// ---- Invariant 1: analyzer inside the exponential-simulation CI ------------

TEST(FuzzHarness, AnalyzerCiCheckDetectsSkewedAnalyzer) {
  const HarnessOptions options = fast_options();
  const Scenario scenario = draw_scenario(options.corpus, 0);
  HarnessHooks hooks;
  hooks.exponential_throughput = [](const Mapping& m, ExecutionModel model) {
    return exponential_throughput(m, model).throughput * 1.5;
  };
  EXPECT_TRUE(
      check_fails(scenario, CheckId::kAnalyzerCi, options, hooks));
  // The honest analyzer passes the same scenario at the same sizes.
  EXPECT_FALSE(check_fails(scenario, CheckId::kAnalyzerCi, options, {}));
}

// ---- Invariant 2: Theorem 7 N.B.U.E. sandwich ------------------------------

TEST(FuzzHarness, NbueSandwichCheckDetectsEscapingSimulation) {
  const HarnessOptions options = fast_options();
  const Scenario scenario = draw_scenario(options.corpus, 0);  // const law
  ASSERT_TRUE(scenario.law->is_nbue());
  HarnessHooks hooks;
  // Push the measured throughput 40% above the deterministic upper bound.
  hooks.sim_throughput_transform = [](double t) { return t * 1.4; };
  EXPECT_TRUE(
      check_fails(scenario, CheckId::kNbueSandwich, options, hooks));
  // ...and 60% below the exponential lower bound.
  HarnessHooks low;
  low.sim_throughput_transform = [](double t) { return t * 0.4; };
  EXPECT_TRUE(check_fails(scenario, CheckId::kNbueSandwich, options, low));
  EXPECT_FALSE(check_fails(scenario, CheckId::kNbueSandwich, options, {}));

  // The sandwich is NEVER asserted for a non-N.B.U.E. law: even the skewed
  // simulation comes back kSkip, not kFail (Fig 17: those laws genuinely
  // escape the sandwich).
  const Scenario heavy = draw_scenario(options.corpus, 8);  // lognormal
  ASSERT_FALSE(heavy.law->is_nbue());
  const ScenarioVerdict verdict = check_scenario(
      heavy, options, hooks,
      1u << static_cast<unsigned>(CheckId::kNbueSandwich));
  EXPECT_EQ(verdict.checks[1].status, CheckStatus::kSkip);
}

// ---- Invariant 3: max-plus deterministic upper bound -----------------------

TEST(FuzzHarness, MaxplusBoundCheckDetectsInflatedSimulation) {
  const HarnessOptions options = fast_options();
  // Use a non-N.B.U.E. scenario so this invariant is exercised where the
  // sandwich is not: the deterministic bound holds for EVERY law.
  const Scenario scenario = draw_scenario(options.corpus, 8);
  HarnessHooks hooks;
  // A heavy-tailed law's measured throughput sits far below the bound, so
  // the inflation must be large to push the simulation over it.
  hooks.sim_throughput_transform = [](double t) { return t * 8.0; };
  EXPECT_TRUE(
      check_fails(scenario, CheckId::kMaxplusBound, options, hooks));
  EXPECT_FALSE(check_fails(scenario, CheckId::kMaxplusBound, options, {}));

  // Equivalent fault on the analytic side: a deflated bound. A heavy-tailed
  // law's measured throughput sits well below the honest bound, so the
  // deflation must be deep to land under the measurement.
  HarnessHooks deflated;
  deflated.deterministic_throughput = [](const Mapping& m,
                                         ExecutionModel model) {
    return deterministic_throughput(m, model).throughput * 0.05;
  };
  EXPECT_TRUE(
      check_fails(scenario, CheckId::kMaxplusBound, options, deflated));
}

// ---- Invariant 4: serial == parallel, bit for bit --------------------------

TEST(FuzzHarness, DeterminismCheckDetectsOneUlpDrift) {
  const HarnessOptions options = fast_options();
  const Scenario scenario = draw_scenario(options.corpus, 0);
  HarnessHooks hooks;
  // The literal off-by-epsilon: one ulp above the true serial score.
  hooks.serial_search_score = one_ulp_above_search;
  EXPECT_TRUE(
      check_fails(scenario, CheckId::kDeterminism, options, hooks));
  EXPECT_FALSE(check_fails(scenario, CheckId::kDeterminism, options, {}));
}

// ---- Invariant 5: bound-screened search == unscreened, bit for bit ---------

TEST(FuzzHarness, PrunedSearchCheckDetectsOneUlpBoundSkew) {
  const HarnessOptions options = fast_options();
  const Scenario scenario = draw_scenario(options.corpus, 0);
  HarnessHooks hooks;
  // The literal off-by-one-ulp fault a sloppy bound comparison produces:
  // the screened search's score drifts one ulp above the true score (as it
  // would if a screen pruned the winning move on a boundary tie).
  hooks.pruned_search_score = one_ulp_above_search;
  EXPECT_TRUE(check_fails(scenario, CheckId::kPrunedSearch, options, hooks));
  // The real screened searches are bit-identical on the same scenario.
  EXPECT_FALSE(check_fails(scenario, CheckId::kPrunedSearch, options, {}));
}

// ---- Invariant 6: warm shared store == a context's own store, bit for bit --

TEST(FuzzHarness, SharedStoreCheckDetectsStaleEntry) {
  const HarnessOptions options = fast_options();
  HarnessHooks hooks;
  // The stale-entry fault the Debug re-solve probe exists for: every rate
  // in the warm store drifts one ulp before the warm re-read. An honest
  // store hands back exactly the published bits, so any drift here is a
  // contract violation the check must catch.
  hooks.store_rate_transform = [](double rate) {
    return std::nextafter(rate, 2.0 * rate + 1.0);
  };
  // The shim only bites where the analysis actually consults the store
  // (Overlap model with heterogeneous patterns); scan the corpus slice for
  // the first such scenario and require the flip FAIL -> PASS there.
  bool found = false;
  for (std::uint64_t k = 0; k < 25 && !found; ++k) {
    const Scenario scenario = draw_scenario(options.corpus, k);
    if (check_fails(scenario, CheckId::kSharedStore, options, hooks)) {
      found = true;
      EXPECT_FALSE(check_fails(scenario, CheckId::kSharedStore, options, {}))
          << scenario.label();
    }
  }
  EXPECT_TRUE(found)
      << "no corpus scenario routes pattern solves through the shared store";
}

// ---- Divergence reporting and minimization ---------------------------------

TEST(FuzzHarness, HarnessReportsAndMinimizesInjectedDivergence) {
  HarnessOptions options = fast_options();
  options.count = 1;
  HarnessHooks hooks;
  // A global analytic fault: fails on the full scenario and keeps failing
  // on every shrunk scenario, so the minimizer can walk all the way down.
  hooks.exponential_throughput = [](const Mapping& m, ExecutionModel model) {
    return exponential_throughput(m, model).throughput * 2.0;
  };
  const HarnessReport report = run_diff_harness(options, hooks);
  ASSERT_FALSE(report.divergences.empty());
  EXPECT_GT(report.fails, 0u);

  const DivergenceRecord& record = report.divergences.front();
  EXPECT_EQ(record.check, CheckId::kAnalyzerCi);
  EXPECT_FALSE(record.detail.empty());
  const Scenario original = draw_scenario(options.corpus, record.scenario_id);
  // Minimization made progress and never grew the scenario.
  EXPECT_GE(record.shrink_steps, 1u);
  EXPECT_LT(record.minimized.mapping.num_processors() +
                record.minimized.mapping.num_stages(),
            original.mapping.num_processors() + original.mapping.num_stages());
  // The emitted fixture replays: parse it back, and the same check still
  // fails on it under the same fault.
  const Scenario replayed = scenario_from_string(record.fixture_text);
  EXPECT_TRUE(check_fails(replayed, record.check, options, hooks));
  // The digest marks the failure.
  EXPECT_NE(report.digest().find("analyzer-ci=FAIL"), std::string::npos);
}

TEST(FuzzHarness, MinimizationIsDeterministic) {
  HarnessOptions options = fast_options();
  const Scenario scenario = draw_scenario(options.corpus, 3);
  HarnessHooks hooks;
  hooks.exponential_throughput = [](const Mapping& m, ExecutionModel model) {
    return exponential_throughput(m, model).throughput * 2.0;
  };
  std::size_t steps_a = 0, steps_b = 0;
  const Scenario a = minimize_divergence(scenario, CheckId::kAnalyzerCi,
                                         options, hooks, &steps_a);
  const Scenario b = minimize_divergence(scenario, CheckId::kAnalyzerCi,
                                         options, hooks, &steps_b);
  EXPECT_EQ(scenario_to_string(a), scenario_to_string(b));
  EXPECT_EQ(steps_a, steps_b);
}

TEST(FuzzHarness, ShrinkCandidatesOnlyShrink) {
  const Scenario scenario = draw_scenario(CorpusOptions{}, 3);
  const std::size_t stages = scenario.mapping.num_stages();
  const std::size_t procs = scenario.mapping.num_processors();
  for (const Scenario& candidate : shrink_candidates(scenario)) {
    EXPECT_LT(candidate.mapping.num_stages() +
                  candidate.mapping.num_processors(),
              stages + procs);
    // Candidates are valid scenarios: serialization round-trips.
    EXPECT_EQ(scenario_to_string(scenario_from_string(
                  scenario_to_string(candidate))),
              scenario_to_string(candidate));
  }
}

// ---- Library-level determinism contract ------------------------------------

TEST(FuzzHarness, DigestAndJsonIdenticalAcrossThreads) {
  const HarnessReport serial = run_diff_harness(fast_options());
  HarnessOptions threaded = fast_options();
  threaded.threads = 2;
  const HarnessReport parallel = run_diff_harness(threaded);
  EXPECT_EQ(serial.digest(), parallel.digest());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

}  // namespace
}  // namespace streamflow
