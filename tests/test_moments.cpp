#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tvla/moments.hpp"
#include "util/rng.hpp"

namespace {

using polaris::tvla::MomentAccumulator;

/// Naive reference: two-pass mean and population variance (paper Eq. 2).
struct NaiveMoments {
  double mean = 0.0;
  double cm2 = 0.0;

  explicit NaiveMoments(const std::vector<double>& xs) {
    for (const double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    for (const double x : xs) cm2 += (x - mean) * (x - mean);
    cm2 /= static_cast<double>(xs.size());
  }
};

TEST(Moments, EmptyAndSingle) {
  MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance_sample(), 0.0);
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance_sample(), 0.0);
  EXPECT_EQ(acc.variance_population(), 0.0);
}

TEST(Moments, KnownSmallSet) {
  // {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population variance 4.
  MomentAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance_population(), 4.0);
  EXPECT_NEAR(acc.variance_sample(), 32.0 / 7.0, 1e-12);
}

TEST(Moments, OnePassMatchesTwoPassRandomData) {
  // Paper Sec. II-A: the one-pass update (Eq. 3-4) must reproduce the
  // naive two-pass result. Property-tested over random data.
  polaris::util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(500 + trial * 37);
    for (auto& x : xs) x = rng.uniform(-3.0, 7.0);
    MomentAccumulator acc;
    for (const double x : xs) acc.add(x);
    const NaiveMoments naive(xs);
    EXPECT_NEAR(acc.mean(), naive.mean, 1e-9);
    EXPECT_NEAR(acc.variance_population(), naive.cm2, 1e-9);
  }
}

TEST(Moments, NumericallyStableWithLargeOffset) {
  // Catastrophic cancellation check: data with a huge common offset.
  MomentAccumulator acc;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) acc.add(offset + (i % 10));
  EXPECT_NEAR(acc.mean(), offset + 4.5, 1e-3);
  EXPECT_NEAR(acc.variance_population(), 8.25, 1e-3);
}

TEST(Moments, MergeEqualsSequential) {
  polaris::util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> xs(400);
    for (auto& x : xs) x = rng.gaussian();
    MomentAccumulator whole;
    for (const double x : xs) whole.add(x);
    MomentAccumulator left, right;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      (i < 150 ? left : right).add(xs[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
    EXPECT_NEAR(left.variance_population(), whole.variance_population(),
                1e-9);
  }
}

TEST(Moments, MergeWithEmpty) {
  MomentAccumulator a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // no-op
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // copy
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Moments, ConstantDataHasZeroVariance) {
  MomentAccumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(2.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.variance_population(), 0.0, 1e-12);
}

}  // namespace
