// parse_distribution round trips, malformed-spec rejection, and cross-seed
// determinism of the sample streams (the reproducibility contract of
// common/prng.hpp carried up through dist/).
#include "dist/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/prng.hpp"

namespace streamflow {
namespace {

const char* const kAllFamilies[] = {
    "const:3.5",        "exp:0.5",          "expmean:2.5",
    "uniform:1,3",      "gauss:10,2",       "gamma:2,1.5",
    "gamma:0.5,2",      "beta:2,2,10",      "weibull:1.5,2",
    "weibull:0.8,1",    "lognormal:0,0.5",  "pareto:3,2",
    "hyperexp:0.3,2,0.5"};

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, SpecReconstructsTheSameLaw) {
  const DistributionPtr law = parse_distribution(GetParam());
  const DistributionPtr copy = parse_distribution(law->spec());
  EXPECT_EQ(copy->name(), law->name());
  EXPECT_EQ(copy->spec(), law->spec());
  EXPECT_DOUBLE_EQ(copy->mean(), law->mean());
  EXPECT_DOUBLE_EQ(copy->variance(), law->variance());
  EXPECT_EQ(copy->is_nbue(), law->is_nbue());
  // The reconstructed law must also produce the identical sample stream.
  Prng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    ASSERT_DOUBLE_EQ(copy->sample(a), law->sample(b)) << GetParam();
  }
}

TEST_P(RoundTripTest, WithMeanSurvivesTheRoundTrip) {
  const DistributionPtr law = parse_distribution(GetParam());
  const DistributionPtr scaled = law->with_mean(4.0);
  EXPECT_NEAR(scaled->mean(), 4.0, 1e-9);
  const DistributionPtr reparsed = parse_distribution(scaled->spec());
  EXPECT_NEAR(reparsed->mean(), 4.0, 1e-9);
  EXPECT_EQ(reparsed->is_nbue(), law->is_nbue());
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RoundTripTest,
                         ::testing::ValuesIn(kAllFamilies));

TEST(ParseDistribution, MalformedSpecsThrow) {
  const char* const bad[] = {
      "",                 // empty
      "const",            // missing colon
      ":1",               // missing family
      "exp:",             // missing parameter
      "exp:1,",           // trailing comma -> empty parameter
      "exp:1 2",          // junk after the number
      "exp:1:2",          // second colon folds into the parameter
      "gamma:1",          // arity too low
      "gamma:1,2,3",      // arity too high
      "beta:1,2",         // arity too low
      "hyperexp:0.5,1",   // arity too low
      "weibull:abc,1",    // not a number
      "gauss:10,nan",     // NaN is rejected
      "pareto:1,1",       // shape 1 has infinite mean
      "pareto:2,-1",      // negative minimum
      "hyperexp:1.5,1,1", // probability outside [0,1]
      "uniform:-1,1",     // negative support
      "gauss:-50,1",      // negligible mass above zero
      "nope:1",           // unknown family
      "exp: 2",           // leading space (strtod skipped it)
      "exp:+2",           // leading '+'
      "exp:0x10",         // hex (strtod read it as 16)
      "const:1e-400",     // underflows to 0 (strtod returned 0)
  };
  for (const char* spec : bad) {
    EXPECT_THROW(parse_distribution(spec), InvalidArgument) << spec;
  }
}

TEST(ParseDistribution, ExpAndExpmeanAreReciprocal) {
  EXPECT_NEAR(parse_distribution("exp:0.25")->mean(), 4.0, 1e-12);
  EXPECT_NEAR(parse_distribution("expmean:4")->mean(), 4.0, 1e-12);
  // Same law, so identical streams from identical seeds.
  Prng a(5), b(5);
  const DistributionPtr rate = parse_distribution("exp:0.25");
  const DistributionPtr mean = parse_distribution("expmean:4");
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(rate->sample(a), mean->sample(b));
  }
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, SampleStreamDependsOnlyOnTheSeed) {
  const DistributionPtr law = parse_distribution(GetParam());
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xDEAD},
                                   std::uint64_t{1} << 62}) {
    Prng a(seed), b(seed);
    for (int i = 0; i < 500; ++i) {
      ASSERT_DOUBLE_EQ(law->sample(a), law->sample(b))
          << GetParam() << " seed " << seed << " draw " << i;
    }
  }
}

TEST_P(DeterminismTest, DifferentSeedsDecorrelateTheStream) {
  const DistributionPtr law = parse_distribution(GetParam());
  if (law->variance() == 0.0) return;  // constants are seed independent
  Prng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (law->sample(a) != law->sample(b)) ++differing;
  }
  EXPECT_GT(differing, 90) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DeterminismTest,
                         ::testing::ValuesIn(kAllFamilies));

TEST(Distributions, Cv2MatchesMoments) {
  // Squared coefficient of variation, variance / mean^2.
  const auto cv2 = [](const DistributionPtr& law) {
    return law->variance() / (law->mean() * law->mean());
  };
  EXPECT_DOUBLE_EQ(cv2(parse_distribution("const:2")), 0.0);
  EXPECT_NEAR(cv2(parse_distribution("exp:0.5")), 1.0, 1e-12);
  EXPECT_NEAR(cv2(parse_distribution("gamma:4,1")), 0.25, 1e-12);
  // Rescaling never changes the squared coefficient of variation.
  const DistributionPtr law = parse_distribution("weibull:1.5,2");
  EXPECT_NEAR(cv2(law->with_mean(9.0)), cv2(law), 1e-12);
}

}  // namespace
}  // namespace streamflow
