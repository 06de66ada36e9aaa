// Transient analysis of the reachability CTMC by uniformization:
// state probabilities at time t, and the expected number of firings of a
// transition set over [0, t]. This is the exact, finite-horizon counterpart
// of the steady-state throughput — the theoretical version of the Fig 10
// convergence study (finite-horizon throughput climbs toward the stationary
// value as the horizon grows). Only the transient-convergence bench and its
// test use it, so it lives with the test-side references.
#pragma once

#include <vector>

#include "markov/reachability.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

struct TransientOptions {
  /// Truncation error bound for the uniformization (Poisson tail mass).
  static constexpr double epsilon = 1e-10;
  /// Hard cap on uniformization steps (guards pathological horizons).
  /// Settable so that a test can reach the step-cap error.
  std::size_t max_steps = 2'000'000;
};

struct TransientResult {
  /// State distribution at the horizon.
  std::vector<double> distribution;
  /// Expected firings of the counted transitions over [0, horizon].
  double expected_firings = 0.0;
  /// expected_firings / horizon: the finite-horizon throughput.
  double average_throughput = 0.0;
  /// Uniformization steps actually taken.
  std::size_t steps = 0;
};

/// Computes the transient distribution and expected firing count at time
/// `horizon`, starting from the TPN's initial marking (state 0 of `chain`).
/// `counted` selects the transitions whose firings are accumulated
/// (e.g. the last column for completed data sets).
TransientResult transient_analysis(const TimedEventGraph& graph,
                                   const TpnMarkovChain& chain,
                                   const std::vector<double>& rates,
                                   const std::vector<std::size_t>& counted,
                                   double horizon,
                                   const TransientOptions& options = {});

}  // namespace streamflow
