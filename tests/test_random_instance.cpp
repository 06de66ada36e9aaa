#include "model/random_instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.hpp"
#include "model/serialization.hpp"

namespace streamflow {
namespace {

TEST(RandomInstance, RespectsShapeAndRanges) {
  RandomInstanceOptions options;
  options.num_stages = 5;
  options.num_processors = 12;
  options.comp_min = 5.0;
  options.comp_max = 15.0;
  options.comm_min = 10.0;
  options.comm_max = 50.0;
  Prng prng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    EXPECT_EQ(mapping.num_stages(), 5u);
    EXPECT_EQ(mapping.num_processors(), 12u);
    std::size_t used = 0;
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_GE(mapping.replication(i), 1u);
      used += mapping.replication(i);
      for (std::size_t p : mapping.team(i)) {
        EXPECT_GE(mapping.comp_time(p), options.comp_min - 1e-9);
        EXPECT_LE(mapping.comp_time(p), options.comp_max + 1e-9);
        if (i + 1 < 5) {
          for (std::size_t q : mapping.team(i + 1)) {
            EXPECT_GE(mapping.comm_time(p, q), options.comm_min - 1e-9);
            EXPECT_LE(mapping.comm_time(p, q), options.comm_max + 1e-9);
          }
        }
      }
    }
    EXPECT_EQ(used, 12u);  // every processor is assigned
    EXPECT_LE(mapping.num_paths(), options.max_paths);
  }
}

TEST(RandomInstance, DeterministicGivenSeed) {
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 10;
  Prng a(99), b(99);
  const Mapping m1 = random_instance(options, a);
  const Mapping m2 = random_instance(options, b);
  EXPECT_EQ(m1.to_string(), m2.to_string());
  for (std::size_t p = 0; p < 10; ++p)
    EXPECT_EQ(m1.stage_of(p), m2.stage_of(p));
}

TEST(RandomInstance, Validation) {
  Prng prng(1);
  RandomInstanceOptions bad;
  bad.num_stages = 5;
  bad.num_processors = 3;
  EXPECT_THROW(random_instance(bad, prng), InvalidArgument);
  RandomInstanceOptions bad_range;
  bad_range.comp_min = 0.0;
  EXPECT_THROW(random_instance(bad_range, prng), InvalidArgument);
}

// ---- Regime knobs (PR 7: scenario-corpus generation) -----------------------

TEST(RandomInstance, ZeroCostFractionScalesFlaggedStages) {
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 8;
  options.zero_cost_fraction = 1.0;  // every stage degenerate
  options.degenerate_scale = 1e-4;
  Prng prng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    for (std::size_t p = 0; p < mapping.num_processors(); ++p) {
      if (mapping.stage_of(p) == Mapping::kUnused) continue;
      // comp_time in [comp_min, comp_max] * degenerate_scale.
      EXPECT_GE(mapping.comp_time(p), options.comp_min * 1e-4 - 1e-15);
      EXPECT_LE(mapping.comp_time(p), options.comp_max * 1e-4 + 1e-15);
    }
  }
}

TEST(RandomInstance, ZeroCostFractionHalfMixesRegularAndDegenerate) {
  RandomInstanceOptions options;
  options.num_stages = 5;
  options.num_processors = 10;
  options.zero_cost_fraction = 0.5;
  options.degenerate_scale = 1e-4;
  Prng prng(32);
  std::size_t degenerate_stages = 0, regular_stages = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
      // The whole stage is flagged or not, so any member's time tells.
      const double t = mapping.comp_time(mapping.team(i)[0]);
      if (t <= options.comp_max * 1e-4) {
        ++degenerate_stages;
      } else {
        ASSERT_GE(t, options.comp_min);
        ++regular_stages;
      }
    }
  }
  // 100 stages, each a fair coin: both kinds must appear.
  EXPECT_GT(degenerate_stages, 10u);
  EXPECT_GT(regular_stages, 10u);
}

TEST(RandomInstance, BandwidthHeterogeneitySpreadsLinkTimes) {
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 9;
  options.bandwidth_heterogeneity = 100.0;
  Prng prng(33);
  double min_time = 1e300, max_time = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    for (std::size_t i = 0; i + 1 < mapping.num_stages(); ++i) {
      for (std::size_t p : mapping.team(i)) {
        for (std::size_t q : mapping.team(i + 1)) {
          const double t = mapping.comm_time(p, q);
          min_time = std::min(min_time, t);
          max_time = std::max(max_time, t);
        }
      }
    }
  }
  // Base times span [1, 5] (defaults); a x100 log-uniform multiplier must
  // spread the observed ratio far beyond that factor-5 envelope.
  EXPECT_GT(max_time / min_time, 50.0);
}

TEST(RandomInstance, TeamSkewConcentratesReplication) {
  RandomInstanceOptions options;
  options.num_stages = 3;
  options.num_processors = 24;
  options.max_paths = 1'000'000;  // don't let the lcm cap redraw skewed splits
  options.team_skew = 3.0;
  Prng skewed_prng(34), uniform_prng(34);
  double skewed_max = 0.0, uniform_max = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const Mapping skewed = random_instance(options, skewed_prng);
    RandomInstanceOptions flat = options;
    flat.team_skew = 0.0;
    const Mapping uniform = random_instance(flat, uniform_prng);
    std::size_t s = 0, u = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      s = std::max(s, skewed.replication(i));
      u = std::max(u, uniform.replication(i));
    }
    skewed_max += static_cast<double>(s);
    uniform_max += static_cast<double>(u);
  }
  // Preferential attachment with skew 3 piles almost all 21 free units onto
  // one team; the uniform composition averages far below that.
  EXPECT_GT(skewed_max / 20.0, uniform_max / 20.0 + 2.0);
  EXPECT_GT(skewed_max / 20.0, 17.0);
}

TEST(RandomInstance, KnobValidation) {
  Prng prng(35);
  RandomInstanceOptions options;
  options.zero_cost_fraction = 1.5;
  EXPECT_THROW(random_instance(options, prng), InvalidArgument);
  options = {};
  options.degenerate_scale = 0.0;
  EXPECT_THROW(random_instance(options, prng), InvalidArgument);
  options = {};
  options.bandwidth_heterogeneity = 0.5;
  EXPECT_THROW(random_instance(options, prng), InvalidArgument);
  options = {};
  options.team_skew = -1.0;
  EXPECT_THROW(random_instance(options, prng), InvalidArgument);
}

TEST(RandomInstance, KnobbedDrawsStayDeterministicAcrossSeeds) {
  RandomInstanceOptions options;
  options.num_stages = 4;
  options.num_processors = 12;
  options.zero_cost_fraction = 0.3;
  options.bandwidth_heterogeneity = 10.0;
  options.team_skew = 2.0;
  Prng a(77), b(77), c(78);
  const Mapping m1 = random_instance(options, a);
  const Mapping m2 = random_instance(options, b);
  EXPECT_EQ(m1.to_string(), m2.to_string());
  EXPECT_EQ(instance_to_string(m1), instance_to_string(m2));
  // A different seed must actually change the draw.
  const Mapping m3 = random_instance(options, c);
  EXPECT_NE(instance_to_string(m1), instance_to_string(m3));
}

TEST(RandomInstance, LcmCapIsEnforced) {
  RandomInstanceOptions options;
  options.num_stages = 6;
  options.num_processors = 30;
  options.max_paths = 64;
  Prng prng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Mapping mapping = random_instance(options, prng);
    EXPECT_LE(mapping.num_paths(), 64);
  }
}

}  // namespace
}  // namespace streamflow
