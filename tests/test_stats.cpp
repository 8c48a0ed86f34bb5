#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace mca::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  running_stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  running_stats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownValues) {
  running_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  rng r{5};
  running_stats all;
  running_stats left;
  running_stats right;
  for (int i = 0; i < 1'000; ++i) {
    const double x = r.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  running_stats a;
  a.add(1.0);
  a.add(2.0);
  running_stats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  running_stats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, KnownQuartiles) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.25), 2.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0), 7.0);
}

TEST(Percentile, ThrowsOnEmptyOrBadQ) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile_sorted(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(one, -0.1), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(one, 1.1), std::invalid_argument);
}

TEST(Summary, MatchesRunningStats) {
  rng r{6};
  std::vector<double> xs;
  running_stats s;
  for (int i = 0; i < 5'000; ++i) {
    const double x = r.uniform(0.0, 100.0);
    xs.push_back(x);
    s.add(x);
  }
  const summary sum = summary_of(xs);
  EXPECT_EQ(sum.count, 5'000u);
  EXPECT_NEAR(sum.mean, s.mean(), 1e-9);
  EXPECT_NEAR(sum.stddev, s.stddev(), 1e-9);
  EXPECT_EQ(sum.min, s.min());
  EXPECT_EQ(sum.max, s.max());
  EXPECT_NEAR(sum.median, 50.0, 2.0);
  EXPECT_LT(sum.p5, sum.p25);
  EXPECT_LT(sum.p25, sum.median);
  EXPECT_LT(sum.median, sum.p75);
  EXPECT_LT(sum.p75, sum.p95);
}

TEST(Summary, ThrowsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(summary_of(empty), std::invalid_argument);
}

TEST(MeanOf, Basics) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.0);
  const std::vector<double> empty;
  EXPECT_EQ(mean_of(empty), 0.0);
}

// Property sweep: percentile_sorted must be monotone in q for any data.
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotone, MonotoneInQ) {
  rng r{GetParam()};
  std::vector<double> xs;
  const int n = 1 + static_cast<int>(r.uniform_int(1, 200));
  for (int i = 0; i < n; ++i) xs.push_back(r.normal(0.0, 10.0));
  std::sort(xs.begin(), xs.end());
  double last = percentile_sorted(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = percentile_sorted(xs, q);
    EXPECT_GE(v, last - 1e-12);
    last = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mca::util
