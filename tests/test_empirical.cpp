#include "util/empirical.h"

#include <gtest/gtest.h>

#include <vector>

namespace mca::util {
namespace {

TEST(Empirical, ThrowsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(empirical_distribution{empty}, std::invalid_argument);
}

TEST(Empirical, SamplesWithinObservedRange) {
  const std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
  empirical_distribution d{xs};
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
  rng r{1};
  for (int i = 0; i < 1'000; ++i) {
    const double x = d.sample(r);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 9.0);
  }
}

TEST(Empirical, SampleMeanTracksSourceMean) {
  rng source{2};
  std::vector<double> xs;
  for (int i = 0; i < 10'000; ++i) xs.push_back(source.uniform(100.0, 300.0));
  empirical_distribution d{xs};
  rng r{3};
  double total = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += d.sample(r);
  EXPECT_NEAR(total / n, 200.0, 3.0);
}

TEST(Empirical, SingleSampleAlwaysReturned) {
  const std::vector<double> xs{42.0};
  empirical_distribution d{xs};
  rng r{4};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(r), 42.0);
}

TEST(Empirical, StatsMatchSource) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  empirical_distribution d{xs};
  const auto s = d.stats();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_EQ(d.size(), 4u);
}

}  // namespace
}  // namespace mca::util
