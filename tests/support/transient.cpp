#include "support/transient.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/sparse.hpp"

namespace streamflow {

TransientResult transient_analysis(const TimedEventGraph& graph,
                                   const TpnMarkovChain& chain,
                                   const std::vector<double>& rates,
                                   const std::vector<std::size_t>& counted,
                                   double horizon,
                                   const TransientOptions& options) {
  SF_REQUIRE(horizon > 0.0, "horizon must be positive");
  SF_REQUIRE(rates.size() == graph.num_transitions(),
             "need one rate per transition");
  const std::size_t n = chain.num_states;
  SF_REQUIRE(n > 0, "empty chain");

  // Instantaneous reward g[s]: total rate of counted transitions enabled in
  // state s (each enabled pair contributes exactly one edge).
  std::vector<char> is_counted(graph.num_transitions(), 0);
  for (std::size_t t : counted) {
    SF_REQUIRE(t < graph.num_transitions(), "counted transition out of range");
    is_counted[t] = 1;
  }
  std::vector<double> reward(n, 0.0);
  std::vector<double> exit(n, 0.0);
  std::vector<Triplet> triplets;
  triplets.reserve(chain.edges.size());
  for (const CtmcEdge& e : chain.edges) {
    if (is_counted[e.transition]) reward[e.from] += rates[e.transition];
    if (e.from != e.to) {
      exit[e.from] += rates[e.transition];
      triplets.push_back(Triplet{e.from, e.to, rates[e.transition]});
    }
  }
  const double lambda =
      1.001 * (*std::max_element(exit.begin(), exit.end())) + 1e-12;
  const CsrMatrix q(n, n, std::move(triplets));

  // Poisson(lambda * horizon) weights via a mode-centered recurrence
  // (Fox-Glynn style): find the window [left, right] capturing 1 - epsilon
  // of the mass.
  const double lt = lambda * horizon;
  const auto mode = static_cast<std::size_t>(lt);
  std::vector<double> up;  // weights for k >= mode
  up.push_back(1.0);
  for (std::size_t k = mode;; ++k) {
    const double next = up.back() * lt / static_cast<double>(k + 1);
    if (next < options.epsilon * 1e-3 && static_cast<double>(k) > lt) break;
    up.push_back(next);
    if (up.size() + mode > options.max_steps) {
      throw NumericalError(
          "transient_analysis: horizon needs more uniformization steps than "
          "max_steps; shorten the horizon or raise the cap");
    }
  }
  std::vector<double> down;  // weights for k < mode (descending from mode-1)
  if (mode > 0) {
    double w = static_cast<double>(mode) / lt;  // weight(mode-1)/weight(mode)
    for (std::size_t k = mode; k-- > 0;) {
      down.push_back(w);
      if (w < options.epsilon * 1e-3) break;
      w *= static_cast<double>(k) / lt;
      if (k == 0) break;
    }
  }
  const std::size_t left = mode - down.size();
  const std::size_t right = mode + up.size() - 1;
  // Normalize the weights to sum to one.
  double total = 0.0;
  for (double w : up) total += w;
  for (double w : down) total += w;
  std::vector<double> weight(right - left + 1, 0.0);
  for (std::size_t i = 0; i < down.size(); ++i)
    weight[down.size() - 1 - i] = down[i] / total;
  for (std::size_t i = 0; i < up.size(); ++i)
    weight[down.size() + i] = up[i] / total;

  // Suffix tails: tail[k] = P(N > left + k).
  std::vector<double> tail(weight.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = weight.size(); i-- > 0;) {
    tail[i] = acc;  // strictly greater than left + i
    acc += weight[i];
  }

  TransientResult result;
  result.distribution.assign(n, 0.0);
  std::vector<double> v(n, 0.0);
  v[0] = 1.0;  // the initial marking is state 0 by construction
  std::vector<double> next(n, 0.0);
  double firings = 0.0;
  for (std::size_t k = 0; k <= right; ++k) {
    const double reward_now =
        std::inner_product(v.begin(), v.end(), reward.begin(), 0.0);
    // Integral of the k-th Poisson phase over [0, horizon] = P(N > k) / L.
    const double phase_weight =
        (k < left ? 1.0 : tail[k - left]) / lambda;
    firings += phase_weight * reward_now;
    if (k >= left) {
      const double w = weight[k - left];
      for (std::size_t s = 0; s < n; ++s)
        result.distribution[s] += w * v[s];
    }
    if (k == right) break;
    // v <- v P with P = I + Q / lambda.
    for (std::size_t s = 0; s < n; ++s)
      next[s] = v[s] * (1.0 - exit[s] / lambda);
    for (std::size_t r = 0; r < n; ++r) {
      const double share = v[r] / lambda;
      if (share == 0.0) continue;
      for (std::size_t idx = q.row_begin(r); idx < q.row_end(r); ++idx)
        next[q.col_index()[idx]] += share * q.values()[idx];
    }
    v.swap(next);
  }

  result.expected_firings = firings;
  result.average_throughput = firings / horizon;
  result.steps = right + 1;
  return result;
}

}  // namespace streamflow
