// Fixed-width table and CSV emission for the benchmark harness.  Every bench
// binary prints the rows/series of one paper table or figure through this
// printer so the output format is uniform and machine-parseable.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace bees::util {

/// Accumulates rows of stringly-typed cells and renders either an aligned
/// ASCII table (for humans) or CSV (for plotting scripts).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; the row is padded/truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);
  /// Formats a value as a percentage string, e.g. 12.3%.
  static std::string pct(double fraction, int precision = 1);

  void print(std::ostream& os) const;

  std::size_t rows() const noexcept { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const {
    return rows_.at(i);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner used by the bench binaries, e.g.
/// "=== Figure 7: Energy overhead ===".
void print_banner(std::ostream& os, const std::string& title);

}  // namespace bees::util
