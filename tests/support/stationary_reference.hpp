// The dense reference for the stationary solve: pi Q = 0 solved directly by
// LU on the full generator. Tests and bench/sec77_runtime check the
// library's Gauss–Seidel solve against it to 1e-9 relative. A dense LU
// costs O(n^3), so it is meant for chains of a few thousand states at most.
// Also the CSR products the tests check matrix assembly with.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"
#include "markov/reachability.hpp"
#include "support/dense.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

/// Entries stored in `a` after duplicate merging.
std::size_t nonzeros(const CsrMatrix& a);

/// y = A x.
Vector multiply(const CsrMatrix& a, const Vector& x);

/// y = A^T x, without materializing the transpose.
Vector multiply_transpose(const CsrMatrix& a, const Vector& x);

/// Direct solve for the stationary distribution of generator Q (dense).
/// Q must be a proper generator: non-negative off-diagonals, zero row sums.
/// Assumes a single recurrent class (true for our reachability CTMCs, which
/// are strongly connected by liveness of the event graph).
Vector stationary_dense(const DenseMatrix& q);

/// The residual of `pi` for the dense Q, as StationaryOptions::tolerance
/// defines it: sum_j |(pi Q)[j]| / |q_jj|.
double stationary_residual(const DenseMatrix& q, const Vector& pi);

/// The dense LU reference for one chain.
struct DenseReference {
  /// The summed stationary firing frequency of the counted transitions,
  /// what exponential_throughput_general reports.
  double throughput = 0.0;
  /// stationary_residual of the LU's stationary vector.
  double residual = 0.0;
};

/// Solves `chain` under `rates` by stationary_dense and sums the firing
/// frequencies of `counted`.
DenseReference dense_reference(const TimedEventGraph& graph,
                               const TpnMarkovChain& chain,
                               const std::vector<double>& rates,
                               const std::vector<std::size_t>& counted);

/// Every transition of `graph`: the counted set of saturated_flow.
std::vector<std::size_t> all_transitions(const TimedEventGraph& graph);

}  // namespace streamflow
