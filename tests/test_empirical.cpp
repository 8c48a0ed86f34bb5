#include "util/empirical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mca::util {
namespace {

TEST(Empirical, ThrowsOnEmpty) {
  const std::vector<std::uint16_t> empty;
  EXPECT_THROW(empirical_distribution{empty}, std::invalid_argument);
}

TEST(Empirical, TakesAMovedSampleArrayWithoutCopying) {
  std::vector<std::uint16_t> xs{5, 1, 9, 3};
  const std::uint16_t* storage = xs.data();
  const empirical_distribution d{std::move(xs)};
  // The caller's former buffer, in the order given: a copy would live
  // elsewhere, and a sort would reorder it.
  EXPECT_EQ(d.samples().data(), storage);
  ASSERT_EQ(d.samples().size(), 4u);
  EXPECT_EQ(d.samples()[0], 5u);
  EXPECT_EQ(d.samples()[1], 1u);
  EXPECT_EQ(d.samples()[2], 9u);
  EXPECT_EQ(d.samples()[3], 3u);
}

TEST(Empirical, DrawsOnlyStoredSamples) {
  const std::vector<std::uint16_t> xs{5, 1, 9, 3};
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
  // 1,000 distinct samples spread over the whole 0–65535 ms store.
  std::vector<std::uint16_t> xs;
  for (int i = 0; i < 1'000; ++i) {
    xs.push_back(static_cast<std::uint16_t>(65 * (999 - i) + i % 7));
  }
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
  std::vector<std::uint16_t> xs;
  for (int i = 0; i < 10'000; ++i) {
    const double ms = source.uniform(100.0, 300.0);
    xs.push_back(static_cast<std::uint16_t>(ms + 0.5));
  }
  empirical_distribution d{xs};
  rng r{3};
  double total = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += d.sample(r);
  EXPECT_NEAR(total / n, 200.0, 3.0);
}

TEST(Empirical, SingleSampleAlwaysReturned) {
  const std::vector<std::uint16_t> xs{42};
  empirical_distribution d{xs};
  rng r{4};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(r), 42.0);
}

}  // namespace
}  // namespace mca::util
