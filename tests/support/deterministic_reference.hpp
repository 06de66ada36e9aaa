// Test-side references for the deterministic (static-case) analysis of §4.
// The library computes each period once, by Dinkelbach iteration on the
// strongly connected components of the TPN (maxplus/deterministic). These
// routes reach the same numbers another way, so the tests can check one
// against the other:
//  * Lawler's bisection over lambda with a Bellman–Ford feasibility test;
//  * per-transition periods from a reachability closure, not Tarjan;
//  * per-column periods of the Overlap net (§4.1: every Overlap cycle is
//    confined to one column);
//  * a pattern's deterministic saturated flow u*v / Lambda;
//  * a TEG simulation with constant firing times.
#pragma once

#include <cstddef>
#include <vector>

#include "model/mapping.hpp"
#include "sim/teg_sim.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

/// Lawler binary-search cross-check of max_cycle_ratio; returns only the
/// ratio, bisected to `tolerance` (absolute).
double max_cycle_ratio_lawler(const TimedEventGraph& graph,
                              double tolerance = 1e-10);

/// Per-transition asymptotic firing periods of an arbitrary live TEG:
/// periods[t] = max cycle ratio among cycles with a path to t (0 for a
/// transition with no ancestor cycle).
std::vector<double> transition_periods(const TimedEventGraph& graph);

/// Per-column periods of the Overlap TPN (§4.1): index c holds the maximum
/// cycle ratio among cycles of column c (all Overlap cycles are confined to
/// a single column).
std::vector<double> column_periods_overlap(const Mapping& mapping,
                                           const TpnBuildOptions& options = {});

/// Extracts the sub-event-graph induced by one column (transitions of that
/// column and the places joining them).
TimedEventGraph column_subgraph(const TimedEventGraph& graph,
                                std::size_t column);

/// Deterministic saturated flow of a pattern via its critical cycle.
double pattern_flow_deterministic(const CommPattern& pattern);

/// simulate_teg with constant firing times taken from the transitions'
/// deterministic durations.
TegSimResult simulate_teg_deterministic(const TimedEventGraph& graph,
                                        const TegSimOptions& options = {});

}  // namespace streamflow
