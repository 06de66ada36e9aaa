#include "dist/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.hpp"
#include "common/stats.hpp"

namespace streamflow {
namespace {

/// Empirical mean/variance of a law must match its reported moments.
void check_moments(const Distribution& law, int samples = 300'000,
                   double mean_tol = 0.02, double var_tol = 0.05) {
  Prng prng(2024);
  RunningStats stats;
  for (int i = 0; i < samples; ++i) {
    const double x = law.sample(prng);
    ASSERT_GE(x, 0.0) << law.name() << " produced a negative time";
    stats.add(x);
  }
  const double m = law.mean();
  EXPECT_NEAR(stats.mean(), m, mean_tol * std::max(m, 0.1)) << law.name();
  const double v = law.variance();
  if (std::isfinite(v)) {
    EXPECT_NEAR(stats.variance(), v, var_tol * std::max(v, 0.1)) << law.name();
  }
}

TEST(Distributions, ConstantMoments) {
  const auto law = make_constant(3.5);
  Prng prng(1);
  EXPECT_DOUBLE_EQ(law->sample(prng), 3.5);
  EXPECT_DOUBLE_EQ(law->mean(), 3.5);
  EXPECT_DOUBLE_EQ(law->variance(), 0.0);
  EXPECT_TRUE(law->is_nbue());
}

TEST(Distributions, ExponentialMoments) {
  check_moments(*make_exponential_rate(0.5));
  check_moments(*make_exponential_mean(4.0));
  EXPECT_DOUBLE_EQ(make_exponential_mean(4.0)->mean(), 4.0);
  EXPECT_TRUE(make_exponential_rate(2.0)->is_nbue());
}

TEST(Distributions, UniformMoments) {
  check_moments(*make_uniform(1.0, 3.0));
  EXPECT_TRUE(make_uniform(1.0, 3.0)->is_nbue());
}

TEST(Distributions, TruncatedNormalMoments) {
  // Far from zero: behaves like the untruncated normal.
  const auto far = make_truncated_normal(10.0, 1.0);
  EXPECT_NEAR(far->mean(), 10.0, 1e-6);
  EXPECT_NEAR(far->variance(), 1.0, 1e-6);
  check_moments(*far);
  // Near zero: truncation shifts the mean up; the reported moments must
  // still match the samples.
  check_moments(*make_truncated_normal(1.0, 1.0));
  EXPECT_GT(make_truncated_normal(1.0, 1.0)->mean(), 1.0);
  EXPECT_TRUE(far->is_nbue());
}

TEST(Distributions, GammaMomentsAndNbueBoundary) {
  check_moments(*make_gamma(2.0, 1.5));
  check_moments(*make_gamma(0.5, 2.0), 300'000, 0.03, 0.08);
  EXPECT_TRUE(make_gamma(1.0, 1.0)->is_nbue());
  EXPECT_TRUE(make_gamma(3.0, 1.0)->is_nbue());
  EXPECT_FALSE(make_gamma(0.5, 1.0)->is_nbue());  // DFR
}

TEST(Distributions, BetaMoments) {
  check_moments(*make_beta(2.0, 2.0, 10.0));
  check_moments(*make_beta(1.0, 3.0, 4.0));
  EXPECT_TRUE(make_beta(2.0, 2.0, 1.0)->is_nbue());
  EXPECT_FALSE(make_beta(0.5, 0.5, 1.0)->is_nbue());
}

TEST(Distributions, WeibullMoments) {
  check_moments(*make_weibull(1.5, 2.0));
  check_moments(*make_weibull(0.8, 1.0), 300'000, 0.03, 0.1);
  EXPECT_TRUE(make_weibull(2.0, 1.0)->is_nbue());
  EXPECT_FALSE(make_weibull(0.8, 1.0)->is_nbue());
}

TEST(Distributions, LognormalMoments) {
  check_moments(*make_lognormal(0.0, 0.5));
  EXPECT_FALSE(make_lognormal(0.0, 1.0)->is_nbue());
}

TEST(Distributions, ParetoMoments) {
  const auto law = make_pareto(3.0, 2.0);
  EXPECT_NEAR(law->mean(), 3.0, 1e-12);
  EXPECT_NEAR(law->variance(), 2.0 * 2.0 * 3.0 / (4.0 * 1.0), 1e-12);
  check_moments(*law, 600'000, 0.03, 0.2);
  EXPECT_FALSE(law->is_nbue());
  EXPECT_THROW(make_pareto(1.0, 1.0), InvalidArgument);
}

TEST(Distributions, HyperexponentialMoments) {
  const auto law = make_hyperexponential(0.3, 2.0, 0.5);
  EXPECT_NEAR(law->mean(), 0.3 / 2.0 + 0.7 / 0.5, 1e-12);
  check_moments(*law);
  EXPECT_FALSE(law->is_nbue());
}

class WithMeanTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WithMeanTest, RescalesExactlyAndPreservesShape) {
  const DistributionPtr base = parse_distribution(GetParam());
  for (double target : {0.25, 1.0, 7.5}) {
    const DistributionPtr scaled = base->with_mean(target);
    EXPECT_NEAR(scaled->mean(), target, 1e-9 * target)
        << base->name() << " -> " << target;
    EXPECT_EQ(scaled->is_nbue(), base->is_nbue());
    // Linear rescale preserves the coefficient of variation.
    if (base->variance() > 0.0 && std::isfinite(base->variance())) {
      const double cv_base = base->variance() / (base->mean() * base->mean());
      const double cv_scaled =
          scaled->variance() / (scaled->mean() * scaled->mean());
      EXPECT_NEAR(cv_base, cv_scaled, 1e-9) << base->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLaws, WithMeanTest,
    ::testing::Values("const:3", "exp:0.5", "uniform:1,3", "gauss:10,2",
                      "gamma:2,1.5", "beta:2,2,10", "weibull:1.5,2",
                      "lognormal:0,0.5", "pareto:3,2", "hyperexp:0.3,2,0.5"));

TEST(ParseDistribution, RoundTripsAndValidates) {
  EXPECT_DOUBLE_EQ(parse_distribution("const:2.5")->mean(), 2.5);
  EXPECT_DOUBLE_EQ(parse_distribution("expmean:3")->mean(), 3.0);
  EXPECT_NEAR(parse_distribution("exp:0.25")->mean(), 4.0, 1e-12);
  EXPECT_THROW(parse_distribution("nope:1"), InvalidArgument);
  EXPECT_THROW(parse_distribution("exp:1,2"), InvalidArgument);
  EXPECT_THROW(parse_distribution("exp:abc"), InvalidArgument);
  EXPECT_THROW(parse_distribution("uniform:3,1"), InvalidArgument);
  EXPECT_THROW(parse_distribution("const:-1"), InvalidArgument);
  // A subnormal parameter prints in the shortest form that round-trips,
  // like any other (it printed all 17 digits while the round-trip check
  // was std::stod, which raises ERANGE on subnormals).
  const double tiny = 4.9406564584124654e-324;
  EXPECT_EQ(make_constant(tiny)->spec(), "const:4.94066e-324");
  EXPECT_EQ(parse_distribution("const:4.94066e-324")->mean(), tiny);
}

TEST(Distributions, ParameterValidation) {
  EXPECT_THROW(make_exponential_rate(0.0), InvalidArgument);
  EXPECT_THROW(make_uniform(-1.0, 1.0), InvalidArgument);
  EXPECT_THROW(make_truncated_normal(-50.0, 1.0), InvalidArgument);
  EXPECT_THROW(make_gamma(-1.0, 1.0), InvalidArgument);
  EXPECT_THROW(make_beta(0.0, 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(make_hyperexponential(1.5, 1.0, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
