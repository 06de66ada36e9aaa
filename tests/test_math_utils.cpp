#include "common/math_utils.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "support/combinatorics.hpp"

namespace streamflow {
namespace {

TEST(CheckedLcm, BasicPairs) {
  EXPECT_EQ(checked_lcm(1, 1), 1);
  EXPECT_EQ(checked_lcm(2, 3), 6);
  EXPECT_EQ(checked_lcm(4, 6), 12);
  EXPECT_EQ(checked_lcm(21, 27), 189);
  EXPECT_EQ(checked_lcm(1024, 4096), 4096);
}

TEST(CheckedLcm, RangeMatchesPaperExampleC) {
  // Example C: stages replicated on 5, 21, 27, 11 processors.
  std::vector<std::int64_t> factors{5, 21, 27, 11};
  EXPECT_EQ(checked_lcm(std::span<const std::int64_t>(factors)),
            5LL * 21 * 27 * 11 / 3);  // lcm = 10395
}

TEST(CheckedLcm, RejectsNonPositive) {
  EXPECT_THROW(checked_lcm(0, 3), InvalidArgument);
  EXPECT_THROW(checked_lcm(3, -1), InvalidArgument);
}

TEST(CheckedLcm, DetectsOverflow) {
  const std::int64_t big_prime1 = 2'147'483'647;  // 2^31 - 1
  const std::int64_t big_prime2 = 2'147'483'629;
  EXPECT_NO_THROW(checked_lcm(big_prime1, big_prime2));
  EXPECT_THROW(checked_lcm(checked_lcm(big_prime1, big_prime2), 1'000'003),
               CapacityExceeded);
}

TEST(GcdRange, Basics) {
  std::vector<std::int64_t> a{12, 18, 24};
  EXPECT_EQ(gcd_range(std::span<const std::int64_t>(a)), 6);
  std::vector<std::int64_t> b{21, 27};
  EXPECT_EQ(gcd_range(std::span<const std::int64_t>(b)), 3);
}

TEST(Binomial, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1);
  EXPECT_EQ(binomial(5, 0), 1);
  EXPECT_EQ(binomial(5, 5), 1);
  EXPECT_EQ(binomial(5, 2), 10);
  EXPECT_EQ(binomial(10, 3), 120);
  EXPECT_EQ(binomial(3, 7), 0);
}

TEST(Binomial, PascalIdentityHolds) {
  for (std::int64_t n = 1; n <= 40; ++n) {
    for (std::int64_t k = 1; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Binomial, SymmetricAndExactAtLargeArguments) {
  EXPECT_EQ(binomial(60, 30), 118'264'581'564'861'424LL);
  EXPECT_EQ(binomial(60, 30), binomial(60, 30));
  EXPECT_EQ(binomial(52, 26), binomial(52, 52 - 26));
}

TEST(Binomial, ThrowsOnOverflow) {
  EXPECT_THROW(binomial(70, 35), CapacityExceeded);
  EXPECT_THROW(binomial(-1, 0), InvalidArgument);
}

struct YoungCountCase {
  std::int64_t u, v, expected;
};

class YoungCountTest : public ::testing::TestWithParam<YoungCountCase> {};

TEST_P(YoungCountTest, ClosedForm) {
  const auto& c = GetParam();
  EXPECT_EQ(young_state_count(c.u, c.v), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    HandComputed, YoungCountTest,
    ::testing::Values(
        YoungCountCase{1, 1, 1},    // single link: one marking
        YoungCountCase{1, 2, 2},    // C(2,0)*2 = 2
        YoungCountCase{2, 1, 2},    // C(2,1)*1 = 2
        YoungCountCase{2, 2, 6},    // C(3,1)*2
        YoungCountCase{3, 2, 12},   // C(4,2)*2
        YoungCountCase{2, 3, 12},   // C(4,1)*3
        YoungCountCase{9, 7, 45045} // Example C's second communication
        ));

TEST(YoungCount, AsymmetryIsExpected) {
  // S(u,v) = C(u+v-1, u-1) * v is not symmetric in (u, v): the marking
  // counts differ even though throughput formulas are symmetric.
  EXPECT_EQ(young_state_count(2, 1), 2);
  EXPECT_EQ(young_state_count(1, 2), 2);
  EXPECT_EQ(young_state_count(3, 1), 3);
  EXPECT_EQ(young_state_count(1, 3), 3);
}

TEST(YoungEnabledCount, MatchesRatioOfStateCount) {
  for (std::int64_t u = 1; u <= 8; ++u) {
    for (std::int64_t v = 1; v <= 8; ++v) {
      // S'(u,v) = S(u,v) / (u + v - 1).
      EXPECT_EQ(young_enabled_count(u, v) * (u + v - 1),
                young_state_count(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace streamflow
