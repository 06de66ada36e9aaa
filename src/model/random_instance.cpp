#include "model/random_instance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math_utils.hpp"

namespace streamflow {

namespace {

/// Fisher–Yates shuffle driven by our deterministic PRNG.
template <typename T>
void shuffle(std::vector<T>& v, Prng& prng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(prng.uniform_index(static_cast<std::uint64_t>(i)));
    std::swap(v[i - 1], v[j]);
  }
}

/// Uniform random composition of `total` into `parts` positive integers.
std::vector<std::size_t> random_composition(std::size_t total,
                                            std::size_t parts, Prng& prng) {
  SF_REQUIRE(parts >= 1 && total >= parts,
             "cannot split " + std::to_string(total) + " processors into " +
                 std::to_string(parts) + " non-empty teams");
  // Choose parts-1 distinct cut points in {1, .., total-1}.
  std::vector<std::size_t> cuts;
  cuts.reserve(parts - 1);
  std::vector<std::size_t> candidates(total - 1);
  for (std::size_t i = 0; i < total - 1; ++i) candidates[i] = i + 1;
  shuffle(candidates, prng);
  cuts.assign(candidates.begin(),
              candidates.begin() + static_cast<std::ptrdiff_t>(parts - 1));
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::size_t> sizes;
  sizes.reserve(parts);
  std::size_t prev = 0;
  for (std::size_t c : cuts) {
    sizes.push_back(c - prev);
    prev = c;
  }
  sizes.push_back(total - prev);
  return sizes;
}

/// Preferential-attachment composition: every part starts at 1, each of the
/// remaining `total - parts` units joins part i with probability
/// proportional to size_i^skew. Large skews concentrate the mass into one
/// deep part (the deep-replication regime).
std::vector<std::size_t> skewed_composition(std::size_t total,
                                            std::size_t parts, double skew,
                                            Prng& prng) {
  std::vector<std::size_t> sizes(parts, 1);
  std::vector<double> weights(parts, 1.0);
  for (std::size_t unit = parts; unit < total; ++unit) {
    double sum = 0.0;
    for (double w : weights) sum += w;
    const double pick = prng.uniform(0.0, sum);
    double cursor = 0.0;
    std::size_t chosen = parts - 1;
    for (std::size_t i = 0; i < parts; ++i) {
      cursor += weights[i];
      if (pick < cursor) {
        chosen = i;
        break;
      }
    }
    ++sizes[chosen];
    weights[chosen] = std::pow(static_cast<double>(sizes[chosen]), skew);
  }
  return sizes;
}

}  // namespace

void RandomInstanceOptions::validate() const {
  SF_REQUIRE(zero_cost_fraction >= 0.0 && zero_cost_fraction <= 1.0,
             "zero_cost_fraction must lie in [0, 1]");
  SF_REQUIRE(degenerate_scale > 0.0, "degenerate_scale must be positive");
  SF_REQUIRE(bandwidth_heterogeneity >= 1.0,
             "bandwidth_heterogeneity must be >= 1");
  SF_REQUIRE(team_skew >= 0.0 && std::isfinite(team_skew),
             "team_skew must be finite and non-negative");
}

Mapping random_instance(const RandomInstanceOptions& options, Prng& prng) {
  SF_REQUIRE(options.num_stages >= 1, "need at least one stage");
  SF_REQUIRE(options.num_processors >= options.num_stages,
             "need at least one processor per stage");
  SF_REQUIRE(options.comp_min > 0.0 && options.comp_max >= options.comp_min,
             "invalid computation time range");
  SF_REQUIRE(options.comm_min > 0.0 && options.comm_max >= options.comm_min,
             "invalid communication time range");
  options.validate();

  // Draw team sizes until the lcm cap is satisfied.
  std::vector<std::size_t> sizes;
  constexpr int kMaxAttempts = 10'000;
  int attempt = 0;
  for (;;) {
    sizes = options.team_skew > 0.0
                ? skewed_composition(options.num_processors,
                                     options.num_stages, options.team_skew,
                                     prng)
                : random_composition(options.num_processors,
                                     options.num_stages, prng);
    std::vector<std::int64_t> factors(sizes.begin(), sizes.end());
    try {
      if (checked_lcm(std::span<const std::int64_t>(factors)) <=
          options.max_paths)
        break;
    } catch (const CapacityExceeded&) {
      // lcm overflow: treat as exceeding the cap and redraw.
    }
    if (++attempt >= kMaxAttempts) {
      throw CapacityExceeded(
          "could not draw replication factors whose lcm fits under max_paths=" +
          std::to_string(options.max_paths));
    }
  }

  // Assign shuffled processors to consecutive teams.
  std::vector<std::size_t> procs(options.num_processors);
  for (std::size_t p = 0; p < procs.size(); ++p) procs[p] = p;
  shuffle(procs, prng);
  std::vector<std::vector<std::size_t>> teams(options.num_stages);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < options.num_stages; ++i) {
    teams[i].assign(procs.begin() + static_cast<std::ptrdiff_t>(cursor),
                    procs.begin() + static_cast<std::ptrdiff_t>(cursor + sizes[i]));
    cursor += sizes[i];
  }

  // Unit works and unit files; speeds/bandwidths chosen so times land in the
  // requested ranges (time = 1/speed, time = 1/bandwidth).
  Application app = Application::uniform(options.num_stages);

  // Degenerate-stage coin flips: one uniform per stage, drawn up front in
  // stage order so the flag sequence is independent of team sizes.
  std::vector<char> degenerate(options.num_stages, 0);
  if (options.zero_cost_fraction > 0.0) {
    for (std::size_t i = 0; i < options.num_stages; ++i) {
      degenerate[i] =
          prng.uniform(0.0, 1.0) < options.zero_cost_fraction ? 1 : 0;
    }
  }

  std::vector<double> speeds(options.num_processors, 1.0);
  for (std::size_t i = 0; i < options.num_stages; ++i) {
    for (std::size_t p : teams[i]) {
      double comp_time = prng.uniform(options.comp_min, options.comp_max);
      if (degenerate[i]) comp_time *= options.degenerate_scale;
      speeds[p] = app.work(i) / comp_time;
    }
  }
  // Heterogeneity multiplier: log-uniform on [1/h, h], drawn right after the
  // communication time it scales (no-op draw skipped entirely when h == 1,
  // keeping the default draw sequence byte-identical to the pre-knob one).
  const double log_h = std::log(options.bandwidth_heterogeneity);
  auto heterogeneity = [&]() {
    return log_h > 0.0 ? std::exp(prng.uniform(-log_h, log_h)) : 1.0;
  };
  Platform platform{speeds};
  for (std::size_t i = 0; i + 1 < options.num_stages; ++i) {
    // One uniform per column is drawn and discarded before the column's
    // links: the pinned draw sequence, and so every generated instance,
    // corpus scenario and fuzz digest, includes it.
    (void)prng.uniform(options.comm_min, options.comm_max);
    for (std::size_t p : teams[i]) {
      for (std::size_t q : teams[i + 1]) {
        double comm_time = prng.uniform(options.comm_min, options.comm_max);
        comm_time *= heterogeneity();
        platform.set_bandwidth(p, q, app.file_size(i) / comm_time);
      }
    }
  }

  // One shared allocation per generated instance (derived mappings and
  // search candidates share it instead of copying the bandwidth matrix).
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 std::move(teams));
}

}  // namespace streamflow
