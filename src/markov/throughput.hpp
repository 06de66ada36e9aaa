// The general exponential-case method of Theorem 2, end to end:
// TEG + rates -> reachability CTMC -> stationary distribution -> throughput
// as the stationary firing frequency of a chosen set of transitions.
#pragma once

#include <vector>

#include "linalg/stationary.hpp"
#include "markov/reachability.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

struct GeneralMethodOptions {
  ReachabilityOptions reachability;
  /// The stationary solve: residual-bounded Gauss–Seidel at every size.
  // lint:allow(unset-option): carries the sweep cap the tests lower
  StationaryOptions stationary;
};

/// Which stationary solver ran for a chain. Every solve is Gauss–Seidel:
/// kDense is no longer produced, and stays declared while bench_e2e's
/// `linalg.dense_solves` counter reads it.
enum class StationaryBackend {
  kDense,        ///< direct dense LU on the full generator
  kGaussSeidel,  ///< sparse residual-bounded Gauss–Seidel
};

struct GeneralMethodResult {
  /// Sum of the stationary firing frequencies of the counted transitions.
  double throughput = 0.0;
  std::size_t num_states = 0;
  /// See TpnMarkovChain::capacity_clipped.
  bool capacity_clipped = false;
  /// The stationary solver that ran: always kGaussSeidel.
  StationaryBackend backend = StationaryBackend::kDense;
  /// Gauss–Seidel sweeps; 0 only for a one-state chain.
  std::size_t solver_iterations = 0;
  /// Solve quality: the residual of the solved distribution as defined by
  /// StationaryOptions::tolerance, and at most that tolerance.
  double solver_residual = 0.0;
};

/// Exponential firing rates 1/duration for every transition of the graph.
/// Throws InvalidArgument if any duration is zero (an exponential law with
/// infinite rate is not representable; model the file as a tiny one).
std::vector<double> rates_from_durations(const TimedEventGraph& graph);

/// Stationary firing frequency of each transition: freq[t] = rate[t] *
/// P(t enabled). The long-run output rate of the system is the sum of the
/// frequencies over the last-column transitions (one completed data set per
/// firing). `chain` is the graph's explored reachability chain.
std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const TpnMarkovChain& chain,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options = {});

/// Theorem 2's throughput: the summed frequency of `counted` transitions.
GeneralMethodResult exponential_throughput_general(
    const TimedEventGraph& graph, const std::vector<double>& rates,
    const std::vector<std::size_t>& counted,
    const GeneralMethodOptions& options = {});

/// Saturated flow of a pattern chain: the aggregate stationary firing
/// frequency of EVERY transition of the graph. This is the CTMC entry point
/// of the Theorem 3 column method (and of AnalysisContext's pattern cache):
/// a communication pattern's inner throughput is the saturated flow of its
/// folded event graph. Equivalent to exponential_throughput_general with all
/// transitions counted, without materializing the index vector.
GeneralMethodResult saturated_flow(const TimedEventGraph& graph,
                                   const std::vector<double>& rates,
                                   const GeneralMethodOptions& options = {});

}  // namespace streamflow
