// Minimal dense linear algebra: row-major matrices and LU factorization with
// partial pivoting. This is the direct solver behind the dense stationary
// reference (support/stationary_reference.hpp) that the library's
// Gauss–Seidel solve is checked against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "linalg/stationary.hpp"

namespace streamflow {

/// Dense row-major matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// y = A * x.
  Vector multiply(const Vector& x) const;

  /// y = A^T * x.
  Vector multiply_transpose(const Vector& x) const;

  DenseMatrix transpose() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization (Doolittle with partial pivoting) of a square matrix.
/// Throws NumericalError if the matrix is singular to working precision.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  /// Solves A x = b for the factored A.
  Vector solve(const Vector& b) const;

  /// Sign-adjusted product of U's diagonal.
  double determinant() const;

  std::size_t size() const { return lu_.rows(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// Convenience one-shot dense solve.
Vector solve_dense(DenseMatrix a, const Vector& b);

}  // namespace streamflow
