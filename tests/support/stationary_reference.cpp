#include "support/stationary_reference.hpp"

#include <cmath>
#include <numeric>

namespace streamflow {

std::size_t nonzeros(const CsrMatrix& a) { return a.values().size(); }

Vector multiply(const CsrMatrix& a, const Vector& x) {
  SF_REQUIRE(x.size() == a.cols(), "dimension mismatch in CSR multiply");
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t k = a.row_begin(r); k < a.row_end(r); ++k)
      acc += a.values()[k] * x[a.col_index()[k]];
    y[r] = acc;
  }
  return y;
}

Vector multiply_transpose(const CsrMatrix& a, const Vector& x) {
  SF_REQUIRE(x.size() == a.rows(),
             "dimension mismatch in CSR multiply_transpose");
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = a.row_begin(r); k < a.row_end(r); ++k)
      y[a.col_index()[k]] += a.values()[k] * xr;
  }
  return y;
}

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

double stationary_residual(const DenseMatrix& q, const Vector& pi) {
  const Vector r = q.multiply_transpose(pi);
  double acc = 0.0;
  for (std::size_t j = 0; j < r.size(); ++j) {
    if (q(j, j) != 0.0) acc += std::fabs(r[j] / q(j, j));
  }
  return acc;
}

DenseReference dense_reference(const TimedEventGraph& graph,
                               const TpnMarkovChain& chain,
                               const std::vector<double>& rates,
                               const std::vector<std::size_t>& counted) {
  DenseMatrix q(chain.num_states, chain.num_states, 0.0);
  for (const CtmcEdge& e : chain.edges) {
    if (e.from == e.to) continue;  // self-loops cancel in the generator
    q(e.from, e.to) += rates[e.transition];
    q(e.from, e.from) -= rates[e.transition];
  }
  const Vector pi = stationary_dense(q);
  std::vector<char> is_counted(graph.num_transitions(), 0);
  for (const std::size_t t : counted) is_counted.at(t) = 1;
  DenseReference reference;
  reference.residual = stationary_residual(q, pi);
  for (const CtmcEdge& e : chain.edges) {
    if (is_counted[e.transition])
      reference.throughput += pi[e.from] * rates[e.transition];
  }
  return reference;
}

std::vector<std::size_t> all_transitions(const TimedEventGraph& graph) {
  std::vector<std::size_t> all(graph.num_transitions());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

}  // namespace streamflow
