// Replay test over the checked-in corpus fixtures (tests/fixtures/
// s0..s14.scenario — seed-1 corpus indices 0..14, three scenarios per
// regime, emitted by `streamflow_cli fuzz --seed 1 --count 15
// --emit-corpus`). Pins three things:
//   * the fixtures parse and are byte-stable (file == re-emitted text), so
//     the on-disk corpus format cannot drift silently;
//   * each fixture still equals the generator's draw for (seed 1, id) —
//     regenerating the corpus is a no-op until the generator changes, and a
//     generator change shows up as a fixture diff in review;
//   * the differential verdict of every fixture: all four checks PASS, with
//     exactly one principled exception (the N.B.U.E. sandwich is SKIP for
//     non-N.B.U.E. laws). Statuses are pinned, floats are not — the
//     verdicts survive tolerance retuning.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/diff_harness.hpp"

#ifndef STREAMFLOW_FIXTURE_DIR
#error "CMake must define STREAMFLOW_FIXTURE_DIR for test_fuzz_replay"
#endif

namespace streamflow {
namespace {

constexpr std::size_t kNumFixtures = 15;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::filesystem::path fixture_path(std::size_t k) {
  return std::filesystem::path(STREAMFLOW_FIXTURE_DIR) /
         std::string("s").append(std::to_string(k)).append(".scenario");
}

TEST(FuzzReplay, FixturesAreByteStableAndMatchTheGenerator) {
  std::vector<bool> regime_seen(kNumRegimes, false);
  for (std::size_t k = 0; k < kNumFixtures; ++k) {
    const std::string text = read_file(fixture_path(k));
    ASSERT_FALSE(text.empty());
    const Scenario scenario = scenario_from_string(text);
    EXPECT_EQ(scenario.id, k);
    regime_seen[static_cast<std::size_t>(scenario.regime)] = true;
    // Byte-stable: parsing and re-emitting reproduces the file exactly.
    EXPECT_EQ(scenario_to_string(scenario), text) << fixture_path(k);
    // Still the generator's draw: the corpus is reproducible from (1, k).
    CorpusOptions corpus;
    corpus.seed = 1;
    EXPECT_EQ(scenario_to_string(draw_scenario(corpus, k)), text)
        << "fixture " << k << " no longer matches draw_scenario(seed 1, " << k
        << ") — regenerate tests/fixtures with --emit-corpus and review the "
           "generator change";
  }
  // 15 fixtures = exactly three per regime.
  for (std::size_t r = 0; r < kNumRegimes; ++r) {
    EXPECT_TRUE(regime_seen[r]) << to_string(static_cast<ScenarioRegime>(r));
  }
}

TEST(FuzzReplay, PinnedVerdicts) {
  HarnessOptions options;
  options.replications = 4;
  options.data_sets = 1500;
  for (std::size_t k = 0; k < kNumFixtures; ++k) {
    const Scenario scenario =
        scenario_from_string(read_file(fixture_path(k)));
    const ScenarioVerdict verdict = check_scenario(scenario, options);
    EXPECT_EQ(verdict.checks[0].status, CheckStatus::kPass)
        << scenario.label() << ": " << verdict.checks[0].detail;
    const CheckStatus expected_sandwich =
        scenario.law->is_nbue() ? CheckStatus::kPass : CheckStatus::kSkip;
    EXPECT_EQ(verdict.checks[1].status, expected_sandwich)
        << scenario.label() << ": " << verdict.checks[1].detail;
    EXPECT_EQ(verdict.checks[2].status, CheckStatus::kPass)
        << scenario.label() << ": " << verdict.checks[2].detail;
    EXPECT_EQ(verdict.checks[3].status, CheckStatus::kPass)
        << scenario.label() << ": " << verdict.checks[3].detail;
    for (const CheckResult& check : verdict.checks)
      EXPECT_NE(check.status, CheckStatus::kFail) << scenario.label();
  }
}

}  // namespace
}  // namespace streamflow
