// Inner throughput of a u x v communication pattern — the quantitative core
// of Theorems 3 and 4.
//
// "Inner flow" is the pattern's saturated data-set rate: the aggregate
// stationary firing frequency of its u*v transitions when all inputs are
// always available. Two evaluations:
//  * exponential, heterogeneous rates: exact CTMC on the Young-diagram state
//    space (Theorem 3);
//  * exponential, homogeneous rate lambda: closed form u*v*lambda/(u+v-1)
//    (Theorem 4; the stationary distribution is uniform).
// The deterministic flow u*v / Lambda (Lambda the pattern's critical-cycle
// ratio) is a test-side reference (tests/support/deterministic_reference).
#pragma once

#include <cstddef>

#include "tpn/columns.hpp"

namespace streamflow {

struct PatternFlow {
  /// Saturated data-set rate through the whole pattern (all u*v links).
  double inner_flow = 0.0;
  /// CTMC state count (exponential CTMC evaluation only, else 0).
  std::size_t num_states = 0;
};

/// Exact exponential analysis via the pattern CTMC (rates = 1/duration per
/// link), through markov/throughput.hpp's saturated_flow. Cost grows as
/// S(u,v)^3; guarded by `max_states`. Deterministic: identical patterns
/// produce bit-identical flows, which is what lets AnalysisContext memoize
/// this solve by pattern signature.
PatternFlow pattern_flow_exponential(const CommPattern& pattern,
                                     std::size_t max_states = 250'000);

/// Theorem 4's closed form for a homogeneous pattern.
double pattern_flow_exponential_homogeneous(std::size_t u, std::size_t v,
                                            double rate);

}  // namespace streamflow
