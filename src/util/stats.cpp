#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace bees::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

LinearFit fit_line(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument("fit_line: need >= 2 matched points");
  }
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ymean = sy / n;
  double ss_tot = 0, ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ymean) * (ys[i] - ymean);
  }
  fit.r_squared = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

}  // namespace bees::util
