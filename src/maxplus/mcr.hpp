// Maximum cycle ratio of a timed event graph — the (max,+) spectral value
// that gives the deterministic period (Section 4): for any cycle C of the
// net, ratio(C) = (sum of firing durations of C's transitions) /
// (number of initial tokens on C's places), and the period is
// Lambda = max_C ratio(C); a maximizing cycle is a critical cycle.
//
// Computed by Dinkelbach iteration: find a positive-weight cycle for the
// current guess, jump to its exact ratio; converges in a handful of rounds
// and is exact up to FP on the final cycle. The tests cross-check it with a
// Lawler bisection (tests/support/deterministic_reference.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "tpn/graph.hpp"

namespace streamflow {

struct CriticalCycle {
  /// The period Lambda = max cycle ratio (time per firing of each
  /// transition on the cycle).
  double ratio = 0.0;
  /// Transition ids of one critical cycle, in traversal order.
  std::vector<std::size_t> transitions;
  /// Place ids traversed (same length; places_[k] goes from transitions[k]
  /// to transitions[(k+1) % size]).
  std::vector<std::size_t> places;
  /// Total tokens on the critical cycle.
  int tokens = 0;
};

/// Dinkelbach maximum-cycle-ratio. The graph must be live (every cycle
/// carries a token) — guaranteed by build_tpn. Graphs whose place graph is
/// acyclic have no cycle at all; this cannot happen for our TPNs (every
/// transition sits on a resource chain) and raises InvalidArgument.
CriticalCycle max_cycle_ratio(const TimedEventGraph& graph);

}  // namespace streamflow
