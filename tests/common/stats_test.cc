#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace bullet {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance of the classic example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(Percentile({7.0}, 1.0), 7.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 20.0);
  EXPECT_NEAR(Percentile(v, 0.1), 14.0, 1e-9);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({50.0, 10.0, 30.0, 20.0, 40.0}, 0.5), 30.0);
}

TEST(Percentile, ClampsQ) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 2.0), 2.0);
}

TEST(Ewma, FirstValueInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.Add(10.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) {
    e.Add(5.0);
  }
  EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

TEST(Ewma, GainControlsAdaptation) {
  Ewma fast(0.9);
  Ewma slow(0.1);
  fast.Add(0.0);
  slow.Add(0.0);
  fast.Add(10.0);
  slow.Add(10.0);
  EXPECT_GT(fast.value(), slow.value());
}

}  // namespace
}  // namespace bullet
