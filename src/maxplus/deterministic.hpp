// Deterministic (static-case) throughput of a replicated mapping, Section 4.
//
// The TPN of a replicated mapping is NOT strongly connected: it is a DAG of
// strongly connected components (resource cycles) joined by forward data-flow
// places. By max-plus spectral theory (cycle-time vector, Baccelli et al.),
// the asymptotic firing period of a transition equals the largest cycle
// ratio among the cycles that can reach it, i.e. the max of its ancestor
// components' periods in the condensation DAG. The system throughput is the
// sum over the last-column transitions of their firing rates.
//
// Note: this refines the naive rho = m / Lambda (Lambda = global max cycle
// ratio), which is only correct when the critical cycle reaches every
// last-column transition — the common case, but not the general one (e.g. a
// replicated LAST stage with heterogeneous speeds completes different rows
// at different rates).
#pragma once

#include <optional>
#include <vector>

#include "maxplus/mcr.hpp"
#include "model/mapping.hpp"
#include "tpn/builder.hpp"

namespace streamflow {

struct DeterministicThroughput {
  /// rho: completed data sets per time unit (rows summed independently).
  double throughput = 0.0;
  /// The paper's rho = m / P: the rate at which data sets can be DELIVERED
  /// IN ORDER, paced by the slowest output row (global critical cycle).
  /// Equal to `throughput` whenever all output rows share one bottleneck —
  /// the common case; strictly smaller e.g. for a replicated last stage
  /// with heterogeneous speeds.
  double in_order_throughput = 0.0;
  /// P = 1 / throughput: average interval between completions (§2.3).
  double period = 0.0;
  /// Largest per-firing period among last-column transitions (the pace of
  /// the slowest output row).
  double bottleneck_transition_period = 0.0;
  /// Mct of §2.3, a per-data-set lower bound on the period 1/rho.
  double max_cycle_time = 0.0;
  /// 1 / Mct: the "critical resource" upper bound on the throughput.
  double critical_resource_throughput = 0.0;
  /// True when the bound is attained (the usual case; Table 1 counts the
  /// rare mappings where it is not).
  bool critical_resource_attained = false;
  /// A critical cycle: the binding cycle of the slowest output row.
  CriticalCycle critical_cycle;
};

/// Full analysis, valid for both execution models.
DeterministicThroughput deterministic_throughput(
    const Mapping& mapping, ExecutionModel model,
    const TpnBuildOptions& options = {});

}  // namespace streamflow
