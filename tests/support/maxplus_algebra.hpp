// The (max,+) algebra of Baccelli, Cohen, Olsder & Quadrat — the formal
// machinery behind Section 4 and the proof of Theorem 5 (the daters of an
// event graph satisfy D(n) = D(n-1) (x) A(n)).
//
// Scalars live in R ∪ {-inf} with  a (+) b = max(a, b)  and
// a (x) b = a + b; eps = -inf is the additive zero, e = 0 the
// multiplicative one. A 1-bounded timed event graph yields matrices A0
// (token-free places) and A1 (one-token places) with
//   x(k) = A0 (x) x(k) (+) A1 (x) x(k-1) + durations,
// whose solution is x(k) = A (x) x(k-1) with A = A0* (x) A1 (Kleene star).
// The per-transition growth rates of x(k) are the cycle-time vector — an
// independent route to the deterministic throughput that the tests check
// the library's critical-cycle analysis (maxplus/deterministic) against.
#pragma once

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

namespace maxplus {

/// The additive identity (-infinity).
inline constexpr double eps = -std::numeric_limits<double>::infinity();
/// The multiplicative identity (0).
inline constexpr double e = 0.0;

/// a (+) b = max.
inline double oplus(double a, double b) { return a > b ? a : b; }
/// a (x) b = plus, absorbing eps.
inline double otimes(double a, double b) {
  if (a == eps || b == eps) return eps;
  return a + b;
}

/// Dense square matrix over the (max,+) semiring.
class Matrix {
 public:
  explicit Matrix(std::size_t n) : n_(n), data_(n * n, eps) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = e;
    return m;
  }

  std::size_t size() const { return n_; }
  double& operator()(std::size_t r, std::size_t c) { return data_[r * n_ + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * n_ + c];
  }

  /// C = this (x) other (max-plus product).
  Matrix multiply(const Matrix& other) const;

  /// y = this (x) x for a column vector.
  std::vector<double> apply(const std::vector<double>& x) const;

  /// Kleene star A* = I (+) A (+) A^2 (+) ... — requires the weighted graph
  /// of A to have no cycle of positive weight (here: A0's support is
  /// acyclic, guaranteed by liveness). Throws InvalidArgument otherwise.
  Matrix star() const;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

/// The state matrix A = A0* (x) A1 of a 1-bounded TEG: entry (i, j) is the
/// longest weighted path from transition j to transition i that crosses
/// exactly one marked place, counting firing durations of every transition
/// entered. x(k) = A (x) x(k-1) gives the k-th firing completion times.
Matrix state_matrix(const TimedEventGraph& graph);

/// Asymptotic growth rates of x(k) = A^k (x) x(0) per coordinate — the
/// cycle-time vector. Computed by iterating the recurrence `iterations`
/// times from x(0) = 0 and differencing over the second half (exact for
/// sufficiently many iterations since the system is ultimately periodic).
std::vector<double> cycle_time_vector(const Matrix& a,
                                      std::size_t iterations = 400);

}  // namespace maxplus

}  // namespace streamflow
