#include "linalg/sparse.hpp"

namespace streamflow {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
  // Two stable counting sorts, by column and then by row, order the entries
  // by (row, col) in O(nonzeros + rows + cols) with duplicates kept in input
  // order; duplicates are then merged while compacting.
  std::vector<std::size_t> col_start(cols + 1, 0);
  for (const auto& t : triplets) {
    SF_REQUIRE(t.row < rows && t.col < cols, "triplet index out of range");
    ++row_ptr_[t.row + 1];
    ++col_start[t.col + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  for (std::size_t c = 0; c < cols_; ++c) col_start[c + 1] += col_start[c];
  std::vector<std::size_t> by_column(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    by_column[col_start[triplets[i].col]++] = i;
  }
  std::vector<std::size_t> sorted(triplets.size());
  std::vector<std::size_t> row_fill(row_ptr_.begin(), row_ptr_.end() - 1);
  for (const std::size_t i : by_column) sorted[row_fill[triplets[i].row]++] = i;

  col_index_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t first = row_ptr_[r];
    const std::size_t last = row_ptr_[r + 1];
    row_ptr_[r] = col_index_.size();
    for (std::size_t k = first; k < last; ++k) {
      const Triplet& t = triplets[sorted[k]];
      if (k != first && t.col == col_index_.back()) {
        values_.back() += t.value;  // merge duplicate
        continue;
      }
      col_index_.push_back(t.col);
      values_.push_back(t.value);
    }
  }
  row_ptr_[rows_] = col_index_.size();
}

std::vector<double> CsrMatrix::multiply(const std::vector<double>& x) const {
  SF_REQUIRE(x.size() == cols_, "dimension mismatch in CSR multiply");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_index_[k]];
    y[r] = acc;
  }
  return y;
}

std::vector<double> CsrMatrix::multiply_transpose(
    const std::vector<double>& x) const {
  SF_REQUIRE(x.size() == rows_, "dimension mismatch in CSR multiply_transpose");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_index_[k]] += values_[k] * xr;
  }
  return y;
}

}  // namespace streamflow
