#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace bees::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(FitLine, ExactLine) {
  std::vector<double> xs{0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * x - 2.0);
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineStillHighR2) {
  Rng rng(9);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i * 0.1);
    ys.push_back(2.0 * i * 0.1 + 1.0 + rng.normal(0.0, 0.05));
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_THROW(fit_line({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_line({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(FitLine, VerticalDataFallsBackToMean) {
  // All x equal: slope undefined; the fit degrades to the mean.
  const LinearFit fit = fit_line({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

}  // namespace
}  // namespace bees::util
