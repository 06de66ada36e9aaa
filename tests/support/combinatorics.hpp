// The Young-diagram combinatorics of Theorem 3: reachable markings of a
// u x v communication pattern correspond to borderlines made of two monotone
// lattice paths (Figures 8-9), giving S(u,v) = C(u+v-1, u-1) * v states, of
// which S'(u,v) = C(u+v-2, u-1) enable a fixed transition.
//
// The reference counts the tests check the pattern reachability graphs
// against: the closed forms (over exact binomials), the paper's double sums
// and a literal path enumeration, so the three triangulate each other. The
// checked gcd over a range rides along: only the math tests call it.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <string>

#include "common/error.hpp"

namespace streamflow {

/// gcd of a whole range.
inline std::int64_t gcd_range(std::span<const std::int64_t> values) {
  std::int64_t acc = 0;
  for (std::int64_t v : values) acc = std::gcd(acc, v);
  return acc;
}

/// Exact binomial coefficient C(n, k); throws CapacityExceeded on overflow.
/// Used for S(u,v) = C(u+v-1, u-1) * v (number of reachable markings of a
/// u x v communication pattern, Theorem 3).
inline std::int64_t binomial(std::int64_t n, std::int64_t k) {
  SF_REQUIRE(n >= 0 && k >= 0, "binomial arguments must be non-negative");
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::int64_t result = 1;
  for (std::int64_t i = 1; i <= k; ++i) {
    // result * (n - k + i) / i is exact at every step, but the intermediate
    // product can overflow; split via gcd first.
    std::int64_t num = n - k + i;
    std::int64_t den = i;
    const std::int64_t g1 = std::gcd(result, den);
    std::int64_t r = result / g1;
    den /= g1;
    const std::int64_t g2 = std::gcd(num, den);
    num /= g2;
    den /= g2;
    SF_ASSERT(den == 1, "binomial internal reduction failed");
    if (num != 0 && r > INT64_MAX / num) {
      throw CapacityExceeded("binomial overflow: C(" + std::to_string(n) +
                             ", " + std::to_string(k) + ")");
    }
    result = r * num;
  }
  return result;
}

/// Number of reachable markings of a u x v pattern (Theorem 3):
///   S(u,v) = C(u+v-1, u-1) * v.
inline std::int64_t young_state_count(std::int64_t u, std::int64_t v) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  const std::int64_t c = binomial(u + v - 1, u - 1);
  if (c > INT64_MAX / v) {
    throw CapacityExceeded("S(u,v) overflow");
  }
  return c * v;
}

/// Number of markings enabling a fixed transition (Theorem 4):
///   S'(u,v) = C(u+v-2, u-1) = S(u,v) / (u+v-1).
inline std::int64_t young_enabled_count(std::int64_t u, std::int64_t v) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  return binomial(u + v - 2, u - 1);
}


/// S(u,v) via the paper's double sum
///   sum_{i=0}^{u-1} sum_{j=0}^{v-1} C(i+j, i) * C(u+v-2-i-j, u-1-i),
/// which the closed form C(u+v-1, u-1) * v must equal.
std::int64_t young_state_count_double_sum(std::int64_t u, std::int64_t v);

/// Literal enumeration: generates every monotone lattice path pair and
/// counts them. Exponential; intended for small u, v in tests.
std::int64_t young_state_count_enumerated(std::int64_t u, std::int64_t v);

/// S'(u,v) via the double sum  sum_{i<=u-2, j<=v-2} C(i+j, i).
std::int64_t young_enabled_count_double_sum(std::int64_t u, std::int64_t v);

}  // namespace streamflow
