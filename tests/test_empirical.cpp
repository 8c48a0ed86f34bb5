#include "util/empirical.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace mca::util {
namespace {

TEST(Empirical, ThrowsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(empirical_distribution{empty}, std::invalid_argument);
}

TEST(Empirical, RejectsNonFiniteSamplesNamingTheFirst) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double x : bad) {
    try {
      empirical_distribution{std::vector<double>{1.0, 2.0, x, 3.0, x}};
      ADD_FAILURE() << "accepted " << x;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("index 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Empirical, TakesAMovedSampleArrayWithoutCopying) {
  std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
  const double* storage = xs.data();
  const empirical_distribution d{std::move(xs)};
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
  // Sorted in the caller's former buffer: a copy would leave it unsorted.
  EXPECT_EQ(storage[0], 1.0);
  EXPECT_EQ(storage[3], 9.0);
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
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0, 2.5};
  empirical_distribution d{xs};
  const auto s = d.stats();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_EQ(d.size(), 5u);
  // Read off the sorted storage, bit for bit what summary_of computes.
  const summary want = summary_of(xs);
  for (const auto field : {&summary::mean, &summary::stddev, &summary::min,
                           &summary::max, &summary::median, &summary::p5,
                           &summary::p25, &summary::p75, &summary::p95}) {
    EXPECT_EQ(s.*field, want.*field);
  }
}

}  // namespace
}  // namespace mca::util
