// Compressed-sparse-row matrices. CTMC generators of reachability graphs
// are extremely sparse (out-degree = number of enabled transitions), so the
// stationary solve of every chain reads its generator in CSR form.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace streamflow {

/// Coordinate-form entry used while assembling a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix built from triplets (duplicates are summed).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// y = A x.
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// y = A^T x (used for pi <- pi P without materializing the transpose).
  std::vector<double> multiply_transpose(const std::vector<double>& x) const;

  /// Row access for iteration: [row_begin(r), row_end(r)) index into
  /// col_index()/values().
  std::size_t row_begin(std::size_t r) const { return row_ptr_[r]; }
  std::size_t row_end(std::size_t r) const { return row_ptr_[r + 1]; }
  const std::vector<std::size_t>& col_index() const { return col_index_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
};

}  // namespace streamflow
