#include "linalg/stationary.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace streamflow {

Vector stationary_dense(const DenseMatrix& q) {
  SF_REQUIRE(q.rows() == q.cols(), "generator must be square");
  const std::size_t n = q.rows();
  SF_REQUIRE(n > 0, "generator must be non-empty");
  // Solve A pi = b with A = Q^T whose last row is replaced by the
  // normalization constraint sum(pi) = 1.
  DenseMatrix a = q.transpose();
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  Vector b(n, 0.0);
  b[n - 1] = 1.0;
  Vector pi = solve_dense(std::move(a), b);
  // Clamp tiny negative round-off and renormalize.
  double sum = 0.0;
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-9) p = 0.0;
    if (p < 0.0) {
      throw NumericalError(
          "stationary_dense produced a significantly negative probability; "
          "the chain may have multiple recurrent classes");
    }
    sum += p;
  }
  SF_ASSERT(sum > 0.0, "stationary distribution sums to zero");
  for (double& p : pi) p /= sum;
  return pi;
}

namespace {

/// The generator in the layout a Gauss–Seidel sweep reads: for each state
/// j its incoming off-diagonal rates (sources ascending) and its exit rate;
/// for each state i, the weight sum_{j<i} q[i][j] / exit[j] with which a
/// change of pi[i] can reach the residual of lower-numbered states.
struct InflowGenerator {
  std::vector<std::size_t> begin;  ///< n + 1 offsets into source/rate
  std::vector<std::size_t> source;
  std::vector<double> rate;
  std::vector<double> exit;
  std::vector<double> down_weight;

  explicit InflowGenerator(const CsrMatrix& q) : begin(q.rows() + 1, 0) {
    const std::size_t n = q.rows();
    exit.assign(n, 0.0);
    down_weight.assign(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = q.row_begin(r); k < q.row_end(r); ++k) {
        const std::size_t c = q.col_index()[k];
        if (c == r) continue;
        ++begin[c + 1];
        exit[r] += q.values()[k];
      }
    }
    for (std::size_t j = 0; j < n; ++j) begin[j + 1] += begin[j];
    source.resize(begin[n]);
    rate.resize(begin[n]);
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = q.row_begin(r); k < q.row_end(r); ++k) {
        const std::size_t c = q.col_index()[k];
        if (c == r) continue;
        source[fill[c]] = r;
        rate[fill[c]++] = q.values()[k];
        if (c < r) down_weight[r] += q.values()[k] / exit[c];
      }
    }
  }

  /// sum_i pi[i] q[i][j] over i != j.
  double inflow(std::size_t j, const Vector& pi) const {
    double acc = 0.0;
    for (std::size_t k = begin[j]; k < begin[j + 1]; ++k)
      acc += pi[source[k]] * rate[k];
    return acc;
  }

  /// stationary_residual of pi (every exit rate is positive here).
  double residual(const Vector& pi) const {
    double acc = 0.0;
    for (std::size_t j = 0; j < pi.size(); ++j)
      acc += std::fabs(inflow(j, pi) / exit[j] - pi[j]);
    return acc;
  }
};

}  // namespace

Vector stationary_gauss_seidel(const CsrMatrix& q_offdiag,
                               const StationaryOptions& options,
                               StationarySolveStats* stats) {
  SF_REQUIRE(q_offdiag.rows() == q_offdiag.cols(), "generator must be square");
  const std::size_t n = q_offdiag.rows();
  SF_REQUIRE(n > 0, "generator must be non-empty");
  const InflowGenerator q(q_offdiag);
  if (n == 1) {
    if (stats != nullptr) *stats = StationarySolveStats{};
    return Vector(1, 1.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!(q.exit[j] > 0.0)) {
      throw NumericalError("stationary_gauss_seidel: state " +
                           std::to_string(j) +
                           " has no exit; the chain is not irreducible");
    }
  }

  // One sweep maps pi (sum 1) to p with p[j] exit[j] = sum_{i<j} p[i] q[i][j]
  // + sum_{i>j} pi[i] q[i][j], so (p Q)[j] = sum_{i>j} (p[i] - pi[i]) q[i][j]
  // and sum_j |(p Q)[j]| / exit[j] <= sum_i |p[i] - pi[i]| down_weight[i]:
  // a bound on the residual of the sweep's result at one term per state.
  Vector pi(n, 1.0 / static_cast<double>(n));
  double bound = 0.0;
  for (std::size_t sweep = 1; sweep <= options.max_iterations; ++sweep) {
    bound = 0.0;
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double next = q.inflow(j, pi) / q.exit[j];
      bound += std::fabs(next - pi[j]) * q.down_weight[j];
      pi[j] = next;
      sum += next;
    }
    if (!(sum > 0.0) || !std::isfinite(sum)) {
      throw NumericalError(
          "stationary_gauss_seidel: the iterate lost all probability mass");
    }
    for (double& p : pi) p /= sum;
    bound /= sum;
    if (bound > options.tolerance) continue;
    // Confirm on the recomputed residual, which rounding may leave above a
    // bound that just passed.
    const double residual = q.residual(pi);
    if (residual <= options.tolerance) {
      if (stats != nullptr) {
        stats->iterations = sweep;
        stats->residual = residual;
      }
      return pi;
    }
  }
  std::ostringstream message;
  message << "stationary_gauss_seidel did not reach residual "
          << options.tolerance << " within " << options.max_iterations
          << " sweeps (last bound " << bound << ")";
  throw NumericalError(message.str());
}

double stationary_residual(const DenseMatrix& q, const Vector& pi) {
  const Vector r = q.multiply_transpose(pi);
  double acc = 0.0;
  for (std::size_t j = 0; j < r.size(); ++j) {
    if (q(j, j) != 0.0) acc += std::fabs(r[j] / q(j, j));
  }
  return acc;
}

}  // namespace streamflow
