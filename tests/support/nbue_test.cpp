#include "support/nbue_test.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

namespace streamflow {

namespace {
/// Tail populations below this make the mrl estimate too noisy to score.
constexpr std::size_t kMinTailSamples = 20;
}  // namespace

NbueResult nbue_test(const std::vector<double>& samples,
                     std::size_t grid_points, double quantile_cap,
                     double tolerance) {
  const std::size_t n = samples.size();
  SF_REQUIRE(n >= 100, "nbue_test needs at least 100 samples");
  SF_REQUIRE(grid_points >= 1, "nbue_test needs at least one grid point");
  SF_REQUIRE(quantile_cap > 0.0 && quantile_cap < 1.0,
             "quantile cap must lie strictly inside (0, 1)");
  SF_REQUIRE(tolerance > 0.0, "tolerance must be positive");

  std::vector<double> sorted(samples);
  double total = 0.0;
  for (const double x : sorted) {
    SF_REQUIRE(std::isfinite(x) && x >= 0.0,
               "nbue_test samples must be finite and non-negative");
    total += x;
  }
  const double mean = total / static_cast<double>(n);
  SF_REQUIRE(mean > 0.0, "nbue_test needs a sample with positive mean");
  std::sort(sorted.begin(), sorted.end());

  // suffix[i] = sum of sorted[i..n), so the mrl above a threshold is O(1).
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) suffix[i] = suffix[i + 1] + sorted[i];

  NbueResult result;
  result.sample_mean = mean;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= grid_points; ++k) {
    const double q =
        quantile_cap * static_cast<double>(k) / static_cast<double>(grid_points);
    const double t =
        sorted[static_cast<std::size_t>(q * static_cast<double>(n - 1))];
    const std::size_t first_above =
        static_cast<std::size_t>(std::distance(
            sorted.begin(),
            std::upper_bound(sorted.begin(), sorted.end(), t)));
    const std::size_t tail = n - first_above;
    if (tail < kMinTailSamples) continue;
    const double mrl =
        suffix[first_above] / static_cast<double>(tail) - t;
    const double excess = (mrl - mean) / mean;
    if (excess > worst) {
      worst = excess;
      result.worst_t = t;
    }
    ++result.evaluated_points;
  }
  // No scorable threshold (e.g. a constant sample): mrl(0) equals the mean
  // by construction, so the excess is exactly zero.
  result.worst_excess = result.evaluated_points > 0 ? worst : 0.0;
  result.consistent_with_nbue = result.worst_excess <= tolerance;
  return result;
}

}  // namespace streamflow
