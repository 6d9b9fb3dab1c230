#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace nrn {
namespace {

TEST(Stats, SummaryBasics) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummarySingleton) {
  const auto s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, SummaryEmptyThrows) {
  EXPECT_THROW(summarize({}), ContractViolation);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.25), 1.75);
}

TEST(Stats, MeanThrowsOnEmpty) {
  EXPECT_THROW(mean({}), ContractViolation);
}

TEST(Stats, OnlineMatchesBatch) {
  Rng rng(5);
  std::vector<double> xs;
  OnlineStats online;
  for (int i = 0; i < 1000; ++i) {
    const double x = -3.0 + 12.0 * rng.uniform01();
    xs.push_back(x);
    online.add(x);
  }
  const auto batch = summarize(xs);
  EXPECT_NEAR(online.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(online.stddev(), batch.stddev, 1e-9);
  EXPECT_EQ(online.count(), 1000u);
}

TEST(Stats, OnlineVarianceFewPoints) {
  OnlineStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, LinearFitExact) {
  const auto fit = fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 1 + 2x
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitNoisy) {
  Rng rng(17);
  std::vector<double> x, y;
  for (int i = 0; i < 400; ++i) {
    x.push_back(i);
    y.push_back(0.5 * i + 3 + (-1.0 + 2.0 * rng.uniform01()));
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 0.5, 0.02);
  EXPECT_NEAR(fit.intercept, 3.0, 2.0);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Stats, LinearFitRejectsConstantX) {
  EXPECT_THROW(fit_linear({2, 2, 2}, {1, 2, 3}), ContractViolation);
}

TEST(Stats, PowerLawFitRecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(4.0 * std::pow(i, 1.5));
  }
  const auto fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept), 4.0, 1e-6);
}

TEST(Stats, LogLinearFitRecoversSlope) {
  // y = 3 + 2 log2(x)
  std::vector<double> x, y;
  for (int e = 1; e <= 12; ++e) {
    x.push_back(std::pow(2.0, e));
    y.push_back(3.0 + 2.0 * e);
  }
  const auto fit = fit_log_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LogLinearRejectsNonPositiveX) {
  EXPECT_THROW(fit_log_linear({0.0, 2.0}, {1.0, 2.0}), ContractViolation);
}

TEST(Stats, PowerLawRejectsNonPositive) {
  EXPECT_THROW(fit_power_law({1, 2}, {0, 1}), ContractViolation);
  EXPECT_THROW(fit_power_law({-1, 2}, {1, 1}), ContractViolation);
}

TEST(Stats, Ci95ShrinksWithSamples) {
  Rng rng(23);
  std::vector<double> small, large;
  for (int i = 0; i < 10; ++i) small.push_back(rng.uniform01());
  for (int i = 0; i < 1000; ++i) large.push_back(rng.uniform01());
  EXPECT_GT(ci95_halfwidth(summarize(small)),
            ci95_halfwidth(summarize(large)));
}

TEST(Stats, RatioGuardsZero) {
  EXPECT_DOUBLE_EQ(ratio(6, 3), 2.0);
  EXPECT_THROW(ratio(1, 0), ContractViolation);
}

}  // namespace
}  // namespace nrn
