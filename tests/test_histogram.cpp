// Property tests for util::histogram, the one log-linear histogram: its
// fixed layout, its error bound against exact sample quantiles, and the
// merge/difference algebra the digests and timeline windows rely on.
#include "util/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace mca::util {
namespace {

constexpr double kRelativeBound = 1.0 / 32.0;  // 2^-5
constexpr double kTop = 16777216.0;            // 2^24

/// numpy's "linear" percentile over the raw samples — the value the
/// histogram's interpolated quantile approximates.
double exact_quantile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Feeds `n` draws of `draw` into a histogram and checks every quantile on
/// a 0.01 grid (plus p99.9) against the exact sample quantile.  All draws
/// are >= 1, where the bound is relative.
void expect_within_bound(const std::function<double(rng&)>& draw,
                         std::uint64_t seed, std::size_t n,
                         const std::string& label) {
  rng gen{seed};
  histogram h;
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = draw(gen);
    ASSERT_GE(x, 1.0);
    ASSERT_LT(x, kTop);
    samples.push_back(x);
    h.add(x);
  }
  std::sort(samples.begin(), samples.end());
  std::vector<double> grid;
  for (int step = 0; step <= 100; ++step) grid.push_back(step / 100.0);
  grid.push_back(0.999);
  for (double q : grid) {
    const double exact = exact_quantile(samples, q);
    EXPECT_LE(std::abs(h.quantile_interpolated(q) - exact),
              kRelativeBound * exact)
        << label << " q=" << q << " exact=" << exact;
  }
}

TEST(Histogram, LayoutIsFixedAndShared) {
  const histogram h;
  EXPECT_EQ(h.bin_count(), 769u);
  EXPECT_EQ(h.bin_count(), 1 + histogram::kOctaves * histogram::kSubBins);
  EXPECT_EQ(h.bin_lower(0), 0.0);
  EXPECT_EQ(h.bin_upper(0), 1.0);
  EXPECT_EQ(h.bin_lower(1), 1.0);
  EXPECT_EQ(h.bin_upper(1), 1.0 + 1.0 / 32.0);
  EXPECT_EQ(h.bin_lower(33), 2.0);  // second octave starts 32 bins later
  EXPECT_EQ(h.bin_upper(h.bin_count() - 1), kTop);
  EXPECT_THROW(h.bin_lower(h.bin_count()), std::out_of_range);
  EXPECT_THROW(h.bin_upper(h.bin_count()), std::out_of_range);
  EXPECT_THROW(h.count_in_bin(h.bin_count()), std::out_of_range);
}

TEST(Histogram, EdgesAreContiguousIncreasingAndWithinTheBound) {
  const histogram h;
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    const double lower = h.bin_lower(b);
    const double upper = h.bin_upper(b);
    EXPECT_LT(lower, upper) << "bin " << b;
    if (b + 1 < h.bin_count()) {
      EXPECT_EQ(upper, h.bin_lower(b + 1)) << "bin " << b;
    }
    if (b > 0) {
      EXPECT_LE(upper - lower, lower * kRelativeBound) << "bin " << b;
    }
  }
}

TEST(Histogram, EverySampleLandsInsideItsBinsEdges) {
  // Both edges of every bin: the lower edge itself and the largest double
  // below the upper edge must land in that bin and nowhere else.
  for (std::size_t b = 1; b < histogram::kBins; ++b) {
    histogram h;
    h.add(h.bin_lower(b));
    h.add(std::nextafter(h.bin_upper(b), 0.0));
    EXPECT_EQ(h.count_in_bin(b), 2u) << "bin " << b;
  }
  // And a seeded spread of interior values across the whole range.
  rng gen{17};
  std::size_t checked = 0;
  for (int i = 0; i < 20'000; ++i) {
    const double x = std::exp2(gen.uniform(0.0, 24.0));
    if (x >= kTop) continue;
    histogram one;
    one.add(x);
    for (std::size_t b = 0; b < one.bin_count(); ++b) {
      if (one.count_in_bin(b) == 0) continue;
      EXPECT_LE(one.bin_lower(b), x);
      EXPECT_LT(x, one.bin_upper(b));
      ++checked;
    }
  }
  EXPECT_GT(checked, 19'000u);
}

TEST(Histogram, SmallIntegersGetBinsOfTheirOwn) {
  // Queue depths and batch sizes: every integer from 1 to 63 lands in its
  // own bin, whose lower edge is the integer.
  histogram h;
  for (int k = 1; k < 64; ++k) h.add(k);
  std::size_t occupied = 0;
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    if (h.count_in_bin(b) == 0) continue;
    ++occupied;
    EXPECT_EQ(h.count_in_bin(b), 1u);
    EXPECT_EQ(h.bin_lower(b), std::floor(h.bin_lower(b)));
  }
  EXPECT_EQ(occupied, 63u);
}

TEST(Histogram, LognormalLatenciesWithinTwoToTheMinusFive) {
  expect_within_bound(
      [](rng& g) { return 1.0 + g.lognormal(std::log(200.0), 0.9); }, 11,
      40'000, "lognormal");
}

TEST(Histogram, ExponentialWithinTwoToTheMinusFive) {
  expect_within_bound([](rng& g) { return 1.0 + g.exponential(1.0 / 300.0); },
                      12, 40'000, "exponential");
}

TEST(Histogram, SmallIntegersWithinTwoToTheMinusFive) {
  expect_within_bound(
      [](rng& g) { return static_cast<double>(g.uniform_int(1, 40)); }, 13,
      20'000, "small-integer");
}

TEST(Histogram, WideRangeWithinTwoToTheMinusFive) {
  // Log-uniform over 24 octaves, 1 ms to hours: the bound is relative
  // everywhere in [1, 2^24).
  expect_within_bound([](rng& g) { return std::exp2(g.uniform(0.0, 23.99)); },
                      14, 20'000, "log-uniform");
}

TEST(Histogram, NaNNegativeAndSubOneSamplesLandInBinZero) {
  histogram h;
  h.add(std::nan(""));
  h.add(-1.0);
  h.add(-0.0);
  h.add(0.0);
  h.add(0.999);
  h.add(std::nextafter(1.0, 0.0));
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count_in_bin(0), 6u);
  h.add(1.0);
  EXPECT_EQ(h.count_in_bin(1), 1u);
}

TEST(Histogram, HugeSamplesLandInTheTopBin) {
  histogram h;
  h.add(kTop);
  h.add(1e307);
  h.add(std::numeric_limits<double>::infinity());
  const std::size_t top = h.bin_count() - 1;
  EXPECT_EQ(h.count_in_bin(top), 3u);
  h.add(std::nextafter(kTop, 0.0));  // the top bin's own range
  EXPECT_EQ(h.count_in_bin(top), 4u);
  EXPECT_EQ(h.count_in_bin(top - 1), 0u);
}

TEST(Histogram, MergeEqualsAddingEverySample) {
  rng gen{21};
  histogram a;
  histogram b;
  histogram all;
  for (int i = 0; i < 5'000; ++i) {
    const double x = gen.lognormal(std::log(150.0), 1.5);
    (gen.bernoulli(0.4) ? a : b).add(x);
    all.add(x);
  }
  const histogram b_before = b;
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  for (std::size_t bin = 0; bin < all.bin_count(); ++bin) {
    EXPECT_EQ(a.count_in_bin(bin), all.count_in_bin(bin)) << "bin " << bin;
    EXPECT_EQ(b.count_in_bin(bin), b_before.count_in_bin(bin));
  }
}

TEST(Histogram, AssignDifferenceUndoesMerge) {
  rng gen{22};
  histogram earlier;
  histogram later;
  for (int i = 0; i < 2'000; ++i) earlier.add(gen.exponential(0.01));
  for (int i = 0; i < 3'000; ++i) later.add(gen.exponential(0.002));
  histogram cumulative = earlier;
  cumulative.merge(later);
  histogram delta;
  delta.add(5.0);  // overwritten, not accumulated
  delta.assign_difference(cumulative, earlier);
  EXPECT_EQ(delta.total(), later.total());
  for (std::size_t b = 0; b < later.bin_count(); ++b) {
    EXPECT_EQ(delta.count_in_bin(b), later.count_in_bin(b)) << "bin " << b;
  }
  EXPECT_THROW(delta.assign_difference(earlier, cumulative),
               std::invalid_argument);
}

TEST(Histogram, AddToBinEqualsAddingThatBinsSamples) {
  rng gen{23};
  histogram by_sample;
  for (int i = 0; i < 3'000; ++i) by_sample.add(gen.lognormal(5.0, 1.2));
  histogram by_bin;
  for (std::size_t b = 0; b < by_sample.bin_count(); ++b) {
    by_bin.add_to_bin(b, by_sample.count_in_bin(b));
  }
  EXPECT_EQ(by_bin.total(), by_sample.total());
  for (std::size_t b = 0; b < by_sample.bin_count(); ++b) {
    EXPECT_EQ(by_bin.count_in_bin(b), by_sample.count_in_bin(b)) << "bin " << b;
  }
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(by_bin.quantile_interpolated(q),
              by_sample.quantile_interpolated(q))
        << "q " << q;
  }
  EXPECT_THROW(by_bin.add_to_bin(histogram::kBins, 1), std::out_of_range);
}

TEST(Histogram, QuantileIsMonotonicInQ) {
  rng gen{23};
  histogram h;
  for (int i = 0; i < 3'000; ++i) h.add(gen.lognormal(std::log(80.0), 1.2));
  double prev = h.quantile_interpolated(0.0);
  for (int step = 1; step <= 200; ++step) {
    const double v = h.quantile_interpolated(step / 200.0);
    EXPECT_GE(v, prev) << "step " << step;
    prev = v;
  }
}

TEST(Histogram, QuantileErrors) {
  histogram h;
  EXPECT_THROW(h.quantile_interpolated(0.5), std::logic_error);
  h.add(7.0);
  EXPECT_THROW(h.quantile_interpolated(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(1.5), std::invalid_argument);
  EXPECT_THROW(h.quantile_interpolated(std::nan("")), std::invalid_argument);
}

}  // namespace
}  // namespace mca::util
