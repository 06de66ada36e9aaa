#include "support/nbue_test.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "dist/distribution.hpp"

namespace streamflow {
namespace {

std::vector<double> draw(const Distribution& law, std::size_t n,
                         std::uint64_t seed = 7) {
  Prng prng(seed);
  std::vector<double> samples(n);
  for (double& x : samples) x = law.sample(prng);
  return samples;
}

TEST(NbueTest, ExponentialIsBorderlineConsistent) {
  // Exponential is memoryless: mrl(t) == mean for all t, so the excess
  // hovers around zero and the sample passes the test.
  const auto result = nbue_test(draw(*make_exponential_mean(2.0), 50'000));
  EXPECT_TRUE(result.consistent_with_nbue);
  EXPECT_NEAR(result.worst_excess, 0.0, 0.1);
}

TEST(NbueTest, IfrLawsPassWithNegativeExcess) {
  for (const char* spec :
       {"const:1", "uniform:0,2", "gauss:10,2", "gamma:3,1", "weibull:2,1"}) {
    const auto result = nbue_test(draw(*parse_distribution(spec), 50'000));
    EXPECT_TRUE(result.consistent_with_nbue) << spec;
    EXPECT_LT(result.worst_excess, 0.05) << spec;
  }
}

TEST(NbueTest, DfrLawsFail) {
  for (const char* spec :
       {"gamma:0.3,3", "hyperexp:0.5,10,0.1", "lognormal:0,1.5",
        "pareto:2.2,1"}) {
    const auto result = nbue_test(draw(*parse_distribution(spec), 50'000));
    EXPECT_FALSE(result.consistent_with_nbue) << spec;
    EXPECT_GT(result.worst_excess, 0.1) << spec;
  }
}

TEST(NbueTest, AgreesWithDistributionFlags) {
  // The empirical verdict must match is_nbue() for clear-cut laws.
  for (const char* spec :
       {"uniform:0,2", "gamma:2,1", "gamma:0.3,3", "lognormal:0,1.5",
        "weibull:0.6,1", "weibull:1.8,1"}) {
    const DistributionPtr law = parse_distribution(spec);
    const auto result = nbue_test(draw(*law, 80'000, 0xABC));
    EXPECT_EQ(result.consistent_with_nbue, law->is_nbue()) << spec;
  }
}

TEST(NbueTest, Validation) {
  EXPECT_THROW(nbue_test(std::vector<double>(10, 1.0)), InvalidArgument);
  EXPECT_THROW(nbue_test(std::vector<double>(200, -1.0)), InvalidArgument);
  EXPECT_THROW(nbue_test(std::vector<double>(200, 1.0), 0), InvalidArgument);
  EXPECT_THROW(nbue_test(std::vector<double>(200, 1.0), 10, 1.5),
               InvalidArgument);
  EXPECT_THROW(nbue_test(std::vector<double>(200, 0.0)), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
