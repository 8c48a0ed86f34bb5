#include "util/empirical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstddef>
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
  // The caller's former buffer, in the order given: a copy would live
  // elsewhere, and a sort would reorder it.
  EXPECT_EQ(d.samples().data(), storage);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d.samples()[0], 5.0);
  EXPECT_EQ(d.samples()[1], 1.0);
  EXPECT_EQ(d.samples()[2], 9.0);
  EXPECT_EQ(d.samples()[3], 3.0);
}

TEST(Empirical, DrawsOnlyStoredSamples) {
  const std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
  empirical_distribution d{xs};
  rng r{1};
  std::vector<std::size_t> hits(xs.size(), 0);
  for (int i = 0; i < 1'000; ++i) {
    const double x = d.sample(r);
    const auto at = std::find(xs.begin(), xs.end(), x);
    ASSERT_NE(at, xs.end()) << x << " is not a stored sample";
    ++hits[static_cast<std::size_t>(at - xs.begin())];
  }
  for (const std::size_t h : hits) EXPECT_GT(h, 0u);
}

TEST(Empirical, SampleMakesExactlyOneDrawAndReadsItsIndex) {
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) xs.push_back(1.5 * i - 300.0);
  const empirical_distribution d{xs};
  rng r{11};
  rng twin{11};
  for (int i = 0; i < 10'000; ++i) {
    const double u = twin.uniform();
    EXPECT_EQ(d.sample(r), xs[uniform_index(u, xs.size())]) << "draw " << i;
  }
  // Both generators made the same number of draws: their next outputs
  // agree.
  EXPECT_EQ(r(), twin());
}

TEST(Empirical, UniformIndexNeverReturnsN) {
  // The largest value rng::uniform returns.
  constexpr double kTop = 1.0 - 0x1.0p-53;
  std::size_t out_of_range = 0;
  const auto check = [&](std::size_t n) {
    if (uniform_index(kTop, n) >= n) ++out_of_range;
  };
  // Rounding to nearest, u·n stays below n for every n < 2^53; rounding
  // upward, it reaches n for almost every n that is not a power of two, and
  // only the clamp keeps the index in range.
  for (const int mode : {FE_TONEAREST, FE_UPWARD}) {
    ASSERT_EQ(std::fesetround(mode), 0);
    for (std::size_t n = 1; n <= (std::size_t{1} << 20); ++n) check(n);
    // Past 2^20: every n within 4096 of each power of two up to 2^31, and
    // a stride through the rest.
    for (int k = 21; k <= 31; ++k) {
      const std::size_t p = std::size_t{1} << k;
      for (std::size_t n = p - 4'096; n <= p + 4'096; ++n) check(n);
    }
    for (std::size_t n = (std::size_t{1} << 20) + 1;
         n <= (std::size_t{1} << 31); n += 65'537) {
      check(n);
    }
  }
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(out_of_range, 0u);
  // Below the clamp, the helper is ⌊u·n⌋.
  EXPECT_EQ(uniform_index(0.0, 7), 0u);
  EXPECT_EQ(uniform_index(0.5, 7), 3u);
  EXPECT_EQ(uniform_index(kTop, 7), 6u);
  EXPECT_EQ(uniform_index(kTop, 1), 0u);
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

}  // namespace
}  // namespace mca::util
