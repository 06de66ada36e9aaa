// Stationary distributions of finite-state CTMCs: pi Q = 0, sum(pi) = 1.
//
// Two back-ends:
//  * dense direct solve (LU) — exact up to FP, used below a size threshold;
//  * residual-bounded Gauss–Seidel on the sparse generator — used for the
//    large reachability graphs produced by Theorem 2's general method.
// The caller (markov/throughput) picks the back-end; both are exposed for
// testing.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"

namespace streamflow {

struct StationaryOptions {
  /// Bound on the residual (see stationary_residual) of the returned vector.
  double tolerance = 1e-12;
  /// Sweep cap; reaching it throws NumericalError.
  std::size_t max_iterations = 100'000;
};

/// Convergence telemetry of one Gauss–Seidel solve, reported through the
/// optional out-param of stationary_gauss_seidel so callers (markov/
/// throughput) can surface which back-end ran and how hard it worked.
struct StationarySolveStats {
  /// Gauss–Seidel sweeps performed.
  std::size_t iterations = 0;
  /// Residual (see stationary_residual) of the returned vector, recomputed
  /// from it rather than taken from the sweep's bound; <= tolerance.
  double residual = 0.0;
};

/// Direct solve for the stationary distribution of generator Q (dense).
/// Q must be a proper generator: non-negative off-diagonals, zero row sums.
/// Assumes a single recurrent class (true for our reachability CTMCs, which
/// are strongly connected by liveness of the event graph).
Vector stationary_dense(const DenseMatrix& q);

/// Gauss–Seidel solve of pi Q = 0: each sweep sets, in state order,
/// pi[j] = sum_i pi[i] q[i][j] / exit[j] from the latest values, then
/// renormalizes. `q_offdiag` holds the OFF-diagonal rates as a CSR matrix
/// (rows = source states); diagonals are derived and diagonal entries of
/// `q_offdiag` are ignored. A sweep is accepted once a rigorous upper bound
/// on the residual of its result, accumulated during the sweep, is
/// <= tolerance and the residual recomputed from the result is too. Throws
/// NumericalError on a state without exits or when max_iterations sweeps do
/// not reach the tolerance. A non-null `stats` receives the sweep count and
/// the residual on success.
Vector stationary_gauss_seidel(const CsrMatrix& q_offdiag,
                               const StationaryOptions& options = {},
                               StationarySolveStats* stats = nullptr);

/// The residual both back-ends report: sum_j |(pi Q)[j]| / |q_jj|, the L1
/// norm of pi Q with each balance equation divided by its state's exit
/// rate, i.e. sum_j |inflow_j / exit_j - pi[j]|. It is a probability-scale
/// number, independent of the time unit, and it does not let slow states of
/// a stiff chain hide behind one fast rate. States without exits (only
/// possible in a one-state chain) contribute nothing.
double stationary_residual(const DenseMatrix& q, const Vector& pi);

}  // namespace streamflow
