// Property tests for the deterministic scenario corpus (fuzz/corpus.hpp):
// purity of (seed, index), the prefix property, regime shapes, law cycling,
// and byte-stable scenario serialization with malformed-input diagnostics.
#include "fuzz/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace streamflow {
namespace {

TEST(FuzzCorpus, ScenarioIsPureFunctionOfSeedAndIndex) {
  CorpusOptions options;
  // Drawing the same index twice — and in any order relative to other
  // indices — yields byte-identical scenarios (the prefix property).
  const std::string late_seven =
      scenario_to_string(draw_scenario(options, 7));
  const std::string zero = scenario_to_string(draw_scenario(options, 0));
  const std::string early_seven =
      scenario_to_string(draw_scenario(options, 7));
  EXPECT_EQ(late_seven, early_seven);
  EXPECT_EQ(zero, scenario_to_string(draw_scenario(options, 0)));

  // A different corpus seed redraws everything.
  CorpusOptions other;
  other.seed = 2;
  EXPECT_NE(zero, scenario_to_string(draw_scenario(other, 0)));
}

TEST(FuzzCorpus, RegimesAndLawsCycleCoprime) {
  CorpusOptions options;
  for (std::uint64_t k = 0; k < 25; ++k) {
    const Scenario scenario = draw_scenario(options, k);
    EXPECT_EQ(scenario.id, k);
    EXPECT_EQ(static_cast<std::size_t>(scenario.regime), k % kNumRegimes);
    EXPECT_EQ(scenario.law->spec(), corpus_law_spec(k));
    EXPECT_LE(scenario.mapping.num_paths(), options.max_paths);
  }
  // gcd(5, 11) = 1: 25 scenarios cover every regime five times and every
  // law family at least twice.
  std::vector<int> law_hits(kNumCorpusLaws, 0);
  for (std::uint64_t k = 0; k < 25; ++k) ++law_hits[k % kNumCorpusLaws];
  EXPECT_EQ(*std::min_element(law_hits.begin(), law_hits.end()), 2);
}

TEST(FuzzCorpus, EachRegimeProducesItsShape) {
  CorpusOptions options;
  bool saw_degenerate_stage = false;
  std::size_t deepest_team = 0;
  double comm_min = 1e300, comm_max = 0.0;
  for (std::uint64_t k = 0; k < 25; ++k) {
    const Scenario scenario = draw_scenario(options, k);
    const Mapping& mapping = scenario.mapping;
    switch (scenario.regime) {
      case ScenarioRegime::kWidePattern:
        // The generator redraws until the u x v pattern is genuinely wide.
        ASSERT_EQ(mapping.num_stages(), 2u);
        EXPECT_GE(mapping.replication(0), 3u);
        EXPECT_GE(mapping.replication(1), 3u);
        break;
      case ScenarioRegime::kDegenerateStages:
        for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
          // Degenerate comp times sit 1e-4 below the regular [1, 5] range.
          if (mapping.comp_time(mapping.team(i)[0]) < 1e-3) {
            saw_degenerate_stage = true;
          }
        }
        break;
      case ScenarioRegime::kDeepReplication:
        for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
          deepest_team = std::max(deepest_team, mapping.replication(i));
        }
        break;
      case ScenarioRegime::kHeteroBandwidth:
        for (std::size_t i = 0; i + 1 < mapping.num_stages(); ++i) {
          for (std::size_t p : mapping.team(i)) {
            for (std::size_t q : mapping.team(i + 1)) {
              const double t = mapping.comm_time(p, q);
              comm_min = std::min(comm_min, t);
              comm_max = std::max(comm_max, t);
            }
          }
        }
        break;
      case ScenarioRegime::kBaseline:
        break;
    }
  }
  EXPECT_TRUE(saw_degenerate_stage);
  EXPECT_GE(deepest_team, 4u);
  // Base comm times span [1, 5]; the x100 multiplier must blow far past
  // that factor-5 envelope across the hetero scenarios.
  EXPECT_GT(comm_max / comm_min, 25.0);
}

TEST(FuzzCorpus, ScenarioSerializationIsByteStable) {
  CorpusOptions options;
  for (std::uint64_t k = 0; k < 10; ++k) {
    const Scenario original = draw_scenario(options, k);
    const std::string first = scenario_to_string(original);
    const Scenario loaded = scenario_from_string(first);
    EXPECT_EQ(scenario_to_string(loaded), first);
    EXPECT_EQ(loaded.id, original.id);
    EXPECT_EQ(loaded.regime, original.regime);
    EXPECT_EQ(loaded.law->spec(), original.law->spec());
    EXPECT_EQ(loaded.model, original.model);
    EXPECT_EQ(loaded.mapping.to_string(), original.mapping.to_string());
  }
}

TEST(FuzzCorpus, MalformedScenarioDiagnostics) {
  EXPECT_THROW(scenario_from_string(""), InvalidArgument);
  EXPECT_THROW(scenario_from_string("not-a-scenario\n"), InvalidArgument);

  const std::string good =
      scenario_to_string(draw_scenario(CorpusOptions{}, 0));
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const auto pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    EXPECT_THROW(scenario_from_string(text), InvalidArgument) << to;
  };
  corrupt("regime baseline", "regime warp-speed");    // unknown regime
  corrupt("law const:1", "law klingon:1");            // unknown law
  corrupt("model overlap", "model sometimes");        // unknown model
  corrupt("id 0", "id x");                            // bad id value
  corrupt("id 0", "id -1");     // negative id (istream >> wrapped it)
  corrupt("id 0", "id 0 x");    // trailing token on a header line
  corrupt("end-instance\n", "end-instance\nstray\n");  // after the block
  corrupt("end-instance", "");                        // unterminated block
  corrupt("regime baseline", "vibe baseline");        // unknown keyword

  // Dropping a header line entirely must be diagnosed, not defaulted.
  corrupt("law const:1\n", "");

  // Corruption inside the embedded instance block surfaces as the instance
  // parser's own diagnostic.
  corrupt("streamflow-instance v1", "streamflow-wrong v1");
  corrupt("works", "wirks");
}

TEST(FuzzCorpus, RegimeNamesRoundTrip) {
  for (std::size_t r = 0; r < kNumRegimes; ++r) {
    const ScenarioRegime regime = static_cast<ScenarioRegime>(r);
    EXPECT_EQ(parse_regime(to_string(regime)), regime);
  }
  EXPECT_THROW(parse_regime("nope"), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
