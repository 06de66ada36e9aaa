#include "model/serialization.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "test_helpers.hpp"

namespace streamflow {
namespace {

TEST(Serialization, RoundTripPreservesEverything) {
  Prng prng(404);
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 9;
  for (int trial = 0; trial < 5; ++trial) {
    const Mapping original = random_instance(options, prng);
    const Mapping loaded = instance_from_string(instance_to_string(original));
    EXPECT_EQ(loaded.to_string(), original.to_string());
    EXPECT_EQ(loaded.num_paths(), original.num_paths());
    for (std::size_t p = 0; p < original.num_processors(); ++p) {
      EXPECT_EQ(loaded.stage_of(p), original.stage_of(p));
      if (original.stage_of(p) != Mapping::kUnused) {
        EXPECT_DOUBLE_EQ(loaded.comp_time(p), original.comp_time(p));
      }
    }
    // The analyses agree bit-for-bit on the round-tripped instance.
    const double rho_a =
        deterministic_throughput(original, ExecutionModel::kOverlap).throughput;
    const double rho_b =
        deterministic_throughput(loaded, ExecutionModel::kOverlap).throughput;
    EXPECT_DOUBLE_EQ(rho_a, rho_b);
  }
}

TEST(Serialization, AcceptsCommentsAndBlankLines) {
  const Mapping original = testing::chain_mapping({1.0, 2.0}, {0.5});
  std::string text = instance_to_string(original);
  text = "# a comment\n\n" + text + "\n   \n# trailing\n";
  const Mapping loaded = instance_from_string(text);
  EXPECT_EQ(loaded.to_string(), original.to_string());
}

TEST(Serialization, DiagnosesMalformedInput) {
  EXPECT_THROW(instance_from_string(""), InvalidArgument);
  EXPECT_THROW(instance_from_string("not-an-instance\n"), InvalidArgument);

  const std::string base = instance_to_string(
      testing::chain_mapping({1.0, 2.0}, {0.5}));

  // Unknown keyword.
  EXPECT_THROW(instance_from_string(base + "bogus 1 2\n"), InvalidArgument);
  // Duplicate team.
  EXPECT_THROW(instance_from_string(base + "team 0 1\n"), InvalidArgument);
  // Missing sections.
  EXPECT_THROW(instance_from_string("streamflow-instance v1\nstages 2\n"),
               InvalidArgument);

  // Semantic failure (processor on two stages) surfaces as InvalidArgument.
  std::string twisted = base;
  const auto pos = twisted.find("team 1");
  twisted.replace(pos, std::string("team 1 1").size(), "team 1 0");
  EXPECT_THROW(instance_from_string(twisted), InvalidArgument);

  // Numbers read as whole tokens, with the line, column and reason. The
  // first two used to load as processor 1 (istream >> size_t wraps a
  // negative and skips a '+'); the overflow used to surface as a count
  // mismatch ("expected 2 works").
  const auto diagnosis = [&base](const std::string& from,
                                 const std::string& to) {
    std::string text = base;
    text.replace(text.find(from), from.size(), to);
    try {
      instance_from_string(text);
    } catch (const InvalidArgument& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(diagnosis("team 1 1", "team 1 -18446744073709551615"),
            "instance parse error at line 9, column 8: bad team processor "
            "'-18446744073709551615' (negative)");
  EXPECT_EQ(diagnosis("team 1 1", "team 1 +1"),
            "instance parse error at line 9, column 8: bad team processor "
            "'+1' (not an integer)");
  EXPECT_EQ(diagnosis("works 1 1", "works 1 1e999"),
            "instance parse error at line 3, column 9: bad work '1e999' (out "
            "of range)");
  EXPECT_EQ(diagnosis("works 1 1", "works 1 inf"),
            "instance parse error at line 3, column 9: bad work 'inf' (not "
            "finite)");
  EXPECT_EQ(diagnosis("works 1 1", "works 1 nan"),
            "instance parse error at line 3, column 9: bad work 'nan' (not "
            "finite)");
}

// Round-trip fuzz over every corpus regime knob setting: emit -> parse ->
// emit must be byte-stable (precision-17 doubles round-trip exactly), so a
// serialized instance is a faithful replayable artifact, not a lossy
// snapshot.
TEST(Serialization, EmitParseEmitIsByteStableAcrossRegimes) {
  std::vector<RandomInstanceOptions> regimes(4);
  regimes[0].num_stages = 4;
  regimes[0].num_processors = 9;
  regimes[1].num_stages = 3;
  regimes[1].num_processors = 8;
  regimes[1].bandwidth_heterogeneity = 100.0;
  regimes[2].num_stages = 5;
  regimes[2].num_processors = 10;
  regimes[2].zero_cost_fraction = 0.5;
  regimes[2].degenerate_scale = 1e-4;
  regimes[3].num_stages = 2;
  regimes[3].num_processors = 11;
  regimes[3].team_skew = 3.0;
  Prng prng(2024);
  for (const RandomInstanceOptions& options : regimes) {
    for (int trial = 0; trial < 10; ++trial) {
      const Mapping original = random_instance(options, prng);
      const std::string first = instance_to_string(original);
      const std::string second =
          instance_to_string(instance_from_string(first));
      EXPECT_EQ(first, second);
    }
  }
}

// Trailing tokens the value parser cannot consume are corrupt input, not
// ignorable noise: before the hardening, "works 1 2 x" silently parsed as
// works = {1, 2} and dropped the rest.
TEST(Serialization, RejectsTrailingGarbageOnEveryLine) {
  const std::string good = instance_to_string(
      testing::chain_mapping({1.0, 2.0}, {0.5}));
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const auto pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    EXPECT_THROW(instance_from_string(text), InvalidArgument) << to;
  };
  corrupt("stages 2", "stages 2 bogus");
  corrupt("works 1 1", "works 1 1 x");
  corrupt("files 1", "files 1 ,");
  corrupt("processors 2", "processors 2 2");
  corrupt("speeds 1 0.5", "speeds 1 0.5 fast");
  corrupt("team 0 0", "team 0 0 x");
  // A link line with a fourth numeric token is also corrupt.
  std::string text = good;
  const auto pos = text.find('\n', text.find("link"));
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, " 9");
  EXPECT_THROW(instance_from_string(text), InvalidArgument);
}

TEST(Serialization, CountMismatchesAreCaught) {
  EXPECT_THROW(instance_from_string("streamflow-instance v1\n"
                                    "stages 2\n"
                                    "works 1 2 3\n"  // too many
                                    "files 1\n"
                                    "processors 2\n"
                                    "speeds 1 1\n"
                                    "link 0 1 1\n"
                                    "team 0 0\n"
                                    "team 1 1\n"),
               InvalidArgument);
}

}  // namespace
}  // namespace streamflow
