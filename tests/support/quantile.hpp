// The sample quantile the statistics tests pin; no shipped path reads one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace streamflow {

/// Sample quantile (linear interpolation) of an unsorted data copy.
inline double quantile(std::vector<double> data, double q) {
  SF_REQUIRE(!data.empty(), "quantile of empty data");
  SF_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  std::sort(data.begin(), data.end());
  const double pos = q * static_cast<double>(data.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, data.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return data[lo] * (1.0 - frac) + data[hi] * frac;
}

}  // namespace streamflow
