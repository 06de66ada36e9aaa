#include "support/maxplus_algebra.hpp"

namespace streamflow::maxplus {

Matrix Matrix::multiply(const Matrix& other) const {
  SF_REQUIRE(n_ == other.n_, "dimension mismatch");
  Matrix result(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = 0; k < n_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == eps) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        const double v = otimes(aik, other(k, j));
        if (v > result(i, j)) result(i, j) = v;
      }
    }
  }
  return result;
}

std::vector<double> Matrix::apply(const std::vector<double>& x) const {
  SF_REQUIRE(x.size() == n_, "dimension mismatch");
  std::vector<double> y(n_, eps);
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = eps;
    for (std::size_t j = 0; j < n_; ++j) {
      acc = oplus(acc, otimes((*this)(i, j), x[j]));
    }
    y[i] = acc;
  }
  return y;
}

Matrix Matrix::star() const {
  // All-pairs longest path (Floyd–Warshall over the (max,+) semiring),
  // starting from I (+) A.
  Matrix r(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) r(i, j) = (*this)(i, j);
    r(i, i) = oplus(r(i, i), e);
  }
  for (std::size_t k = 0; k < n_; ++k) {
    for (std::size_t i = 0; i < n_; ++i) {
      const double rik = r(i, k);
      if (rik == eps) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        const double v = otimes(rik, r(k, j));
        if (v > r(i, j)) r(i, j) = v;
      }
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (r(i, i) > e + 1e-12) {
      throw InvalidArgument(
          "Kleene star diverges: the token-free subgraph has a positive "
          "cycle (the event graph is not live)");
    }
  }
  return r;
}

Matrix state_matrix(const TimedEventGraph& graph) {
  const std::size_t n = graph.num_transitions();
  // x_t(k) = d_t + max( max over 0-token places (s -> t) x_s(k),
  //                     max over 1-token places (s -> t) x_s(k-1) ).
  Matrix b0(n), b1(n);
  for (const Place& p : graph.places()) {
    SF_REQUIRE(p.initial_tokens <= 1,
               "state_matrix requires a 1-bounded initial marking");
    const double w = graph.transition(p.to).duration;
    if (p.initial_tokens == 0) {
      b0(p.to, p.from) = oplus(b0(p.to, p.from), w);
    } else {
      b1(p.to, p.from) = oplus(b1(p.to, p.from), w);
    }
  }
  return b0.star().multiply(b1);
}

std::vector<double> cycle_time_vector(const Matrix& a,
                                      std::size_t iterations) {
  SF_REQUIRE(iterations >= 4, "need at least 4 iterations");
  const std::size_t n = a.size();
  std::vector<double> x(n, 0.0);
  const std::size_t half = iterations / 2;
  std::vector<double> mid(n, 0.0);
  for (std::size_t k = 0; k < iterations; ++k) {
    if (k == half) mid = x;
    x = a.apply(x);
  }
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    SF_REQUIRE(x[i] != eps && mid[i] != eps,
               "transition never fires (disconnected from any token)");
    rates[i] = (x[i] - mid[i]) / static_cast<double>(iterations - half);
  }
  return rates;
}

}  // namespace streamflow::maxplus
