// Checked lcm over ranges: the lcm of the replication factors is the TPN row
// count (§3.3) and can genuinely explode, so overflow throws instead of
// wrapping.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <string>

#include "common/error.hpp"

namespace streamflow {

/// Least common multiple with overflow detection.
/// Throws CapacityExceeded if the result does not fit in int64_t.
inline std::int64_t checked_lcm(std::int64_t a, std::int64_t b) {
  SF_REQUIRE(a > 0 && b > 0, "lcm arguments must be positive");
  const std::int64_t g = std::gcd(a, b);
  const std::int64_t a_red = a / g;
  if (a_red > INT64_MAX / b) {
    throw CapacityExceeded("lcm overflow: lcm(" + std::to_string(a) + ", " +
                           std::to_string(b) + ") exceeds int64 range");
  }
  return a_red * b;
}

/// lcm of a whole range (e.g. replication factors R_1..R_N -> TPN row count).
inline std::int64_t checked_lcm(std::span<const std::int64_t> values) {
  SF_REQUIRE(!values.empty(), "lcm of empty range");
  std::int64_t acc = 1;
  for (std::int64_t v : values) acc = checked_lcm(acc, v);
  return acc;
}

}  // namespace streamflow
