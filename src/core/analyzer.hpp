// Public entry point of the library: throughput analysis of a replicated
// mapping under deterministic, exponential, and general N.B.U.E. timing.
//
//   Mapping mapping(make_instance(app, platform), teams);
//   auto det = deterministic_throughput(mapping, ExecutionModel::kOverlap);
//   auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
//   auto bounds = nbue_throughput_bounds(mapping, ExecutionModel::kOverlap);
//
// Exponential methods (§5), chosen by the execution model:
//  * kColumns for Overlap: the component decomposition of Theorem 3 —
//    per-column communication patterns solved on their Young-diagram CTMCs
//    (or Theorem 4's closed form when the column is homogeneous), composed
//    over the component DAG by the saturation rule. Polynomial whenever the
//    pattern sizes stay moderate; exact.
//  * kGeneralCtmc for Strict: Theorem 2's reachability CTMC on the full
//    net, exact because the Strict net is 1-safe. On an Overlap net
//    (detail::general_ctmc_throughput) it models finite inter-stage buffers
//    of `place_capacity` tokens and converges to the unbounded net from
//    below as the capacity grows; the tests use it as that reference.
//
// Note on composition units: the component throughputs are composed as
// data-set flows with conservation across the DAG (a communication pattern
// fed by u senders of effective rate e is capped at u * min e; each of its
// v receivers draws flow / v). This is Theorem 4's min-composition stated
// in flow units, which the cross-validation tests check against the general
// CTMC and simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "maxplus/deterministic.hpp"
#include "model/mapping.hpp"
#include "model/timing.hpp"

namespace streamflow {

/// The method that produced an ExponentialThroughput.
enum class ExponentialMethod {
  kColumns,
  kGeneralCtmc,
};

struct ExponentialOptions {
  /// Caps for the CTMC solves (pattern chains and the general method).
  std::size_t max_states = 250'000;
  /// Finite-buffer capacity for the Overlap general method (see header).
  // lint:allow(unset-option): the tests' finite-buffer sweep sets it
  int place_capacity = 8;
  /// Cap on the TPN row count m for the general method.
  static constexpr std::int64_t max_rows = 1 << 20;
};

/// Per-component diagnostic of the column method.
struct ComponentInfo {
  std::string label;          ///< e.g. "T3/P5" or "F2#1 (3x2)"
  double inner = 0.0;         ///< saturated rate in isolation
  double effective = 0.0;     ///< rate after upstream composition
  bool bottleneck = false;    ///< effective < inner came from upstream
};

struct ExponentialThroughput {
  /// Completed data sets per time unit (output rows summed independently).
  double throughput = 0.0;
  /// The paper's in-order delivery rate: the slowest output row paces the
  /// ordered stream (see DeterministicThroughput::in_order_throughput).
  double in_order_throughput = 0.0;
  ExponentialMethod method_used = ExponentialMethod::kColumns;
  /// Column-method diagnostics (empty for the general method).
  std::vector<ComponentInfo> components;
  /// General-method diagnostics.
  std::size_t ctmc_states = 0;
  bool capacity_clipped = false;
};

/// Exponential-case throughput (§5): all computation and communication
/// times exponential with the mapping's deterministic times as means.
/// A thin wrapper constructing a throwaway AnalysisContext (see
/// core/analysis_context.hpp); long-running callers that evaluate many
/// mappings should hold a context of their own to share pattern solves.
ExponentialThroughput exponential_throughput(
    const Mapping& mapping, ExecutionModel model,
    const ExponentialOptions& options = {});

namespace detail {
/// Theorem 2's general reachability-CTMC path: the Strict method, and on an
/// Overlap net the finite-buffer reference the tests hold the column method
/// to. Exposed for AnalysisContext; not part of the public API.
ExponentialThroughput general_ctmc_throughput(const Mapping& mapping,
                                              ExecutionModel model,
                                              const ExponentialOptions& options);
}  // namespace detail

/// Theorem 7's bounds for arbitrary I.I.D. N.B.U.E. times with the
/// mapping's deterministic times as means:
///   rho_exp <= rho_nbue <= rho_det.
struct NbueBounds {
  double lower = 0.0;  ///< exponential-case throughput
  double upper = 0.0;  ///< deterministic-case throughput
};
NbueBounds nbue_throughput_bounds(const Mapping& mapping, ExecutionModel model,
                                  const ExponentialOptions& options = {});

}  // namespace streamflow
