// Descriptive statistics used throughout the benchmark harness: running
// sums and means, percentiles, and simple least-squares fits (the paper
// argues energy-vs-compression is approximately linear; we test that claim).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bees::util {

/// Online count/mean/min/max/sum accumulator.  O(1) memory; the mean
/// follows Welford's incremental update, numerically stable for
/// million-sample simulation streams.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear interpolation percentile of `values` at `p` in [0, 1].
/// The input is copied and sorted; returns 0 for an empty input.
double percentile(std::vector<double> values, double p);

/// Result of an ordinary least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 means perfectly linear.
  double r_squared = 0.0;
};

/// Fits a line to (x, y) pairs.  Requires xs.size() == ys.size() >= 2.
LinearFit fit_line(const std::vector<double>& xs,
                   const std::vector<double>& ys);

}  // namespace bees::util
