#include "support/combinatorics.hpp"

#include <functional>

namespace streamflow {

std::int64_t young_state_count_double_sum(std::int64_t u, std::int64_t v) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < u; ++i) {
    for (std::int64_t j = 0; j < v; ++j) {
      total += binomial(i + j, i) * binomial(u + v - 2 - i - j, u - 1 - i);
    }
  }
  return total;
}

namespace {

/// Counts monotone staircase paths from (a, 0) to (0, b) by walking every
/// branch (a steps left interleaved with b steps up, in any order).
std::int64_t count_paths(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 1;
  std::function<std::int64_t(std::int64_t, std::int64_t)> walk =
      [&](std::int64_t x, std::int64_t y) -> std::int64_t {
    if (x == 0 || y == 0) return 1;
    return walk(x - 1, y) + walk(x, y - 1);
  };
  return walk(a, b);
}

}  // namespace

std::int64_t young_state_count_enumerated(std::int64_t u, std::int64_t v) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  std::int64_t total = 0;
  // Borderline = a corner position (i, j) plus one path (i,0) -> (0,j) and
  // one path (u-1-i, v-1-j)-shaped on the opposite corner (Figure 9).
  for (std::int64_t i = 0; i < u; ++i) {
    for (std::int64_t j = 0; j < v; ++j) {
      total += count_paths(i, j) * count_paths(u - 1 - i, v - 1 - j);
    }
  }
  return total;
}

std::int64_t young_enabled_count_double_sum(std::int64_t u, std::int64_t v) {
  SF_REQUIRE(u >= 1 && v >= 1, "pattern dimensions must be >= 1");
  // The RR displays sum_{i<=u-2} sum_{j<=v-2} C(i+j, i); that sum misses
  // the empty-borderline term (check u = v = 2: the sum gives 1 but
  // S' = S/(u+v-1) = 2). The corrected identity, which does match the
  // closed form C(u+v-2, u-1), is 1 + that sum.
  std::int64_t total = 1;
  for (std::int64_t i = 0; i + 2 <= u; ++i) {
    for (std::int64_t j = 0; j + 2 <= v; ++j) {
      total += binomial(i + j, i);
    }
  }
  return total;
}

}  // namespace streamflow
