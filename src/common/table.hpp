// Aligned-table and CSV emission for the benchmark harnesses. Every bench
// binary reproduces one table/figure of the paper as rows on stdout; this
// keeps formatting consistent and greppable across all of them.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace streamflow {

/// A column-aligned text table with an optional CSV rendering.
class Table {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit Table(std::vector<std::string> headers);

  /// Appends one row; the cell count must match the header count.
  void add_row(std::vector<Cell> cells);

  /// Renders with padded columns, a header underline, and `title` above.
  void print(std::ostream& os, const std::string& title = "") const;

  /// Renders as RFC-4180-ish CSV (no quoting of commas expected in our data).
  void print_csv(std::ostream& os) const;

  /// Floating-point cells are formatted with this precision (default 4).
  void set_precision(int digits) { precision_ = digits; }

 private:
  std::string format_cell(const Cell& cell) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

}  // namespace streamflow
