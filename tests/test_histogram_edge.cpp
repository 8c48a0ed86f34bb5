// Randomized edge-case coverage for util::histogram quantile interpolation
// and bin placement: single samples, saturated edge bins fed by
// far-out-of-range values, and NaN/infinite inputs.  The out-of-range
// adds in particular exercise histogram::add's range checks ahead of the
// bit-level indexing, which the ASan+UBSan CI leg watches for invalid
// float-to-integer casts and out-of-bounds bin increments.
#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mca::util {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Reconstructs the multiset of sample positions the interpolated quantile
/// is defined over: the c samples of bin b sit at evenly spaced offsets
/// (j + 0.5)/c of the bin width.  Sorted by construction (bins ascend,
/// within-bin offsets ascend), so the reference quantile is a direct
/// linear interpolation over ranks.
std::vector<double> reconstructed_samples(const histogram& h) {
  std::vector<double> samples;
  samples.reserve(h.total());
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    const std::size_t c = h.count_in_bin(b);
    const double width = h.bin_upper(b) - h.bin_lower(b);
    for (std::size_t j = 0; j < c; ++j) {
      samples.push_back(h.bin_lower(b) +
                        width * (static_cast<double>(j) + 0.5) /
                            static_cast<double>(c));
    }
  }
  return samples;
}

double reference_quantile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

TEST(HistogramEdge, OneSampleEveryQuantileIsItsBinMidpoint) {
  histogram h;
  h.add(3.2);  // octave [2,4) in 1/16 steps: bin [3.1875, 3.25)
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(q), 3.21875);
  }
}

TEST(HistogramEdge, FarOutOfRangeSamplesSaturateEdgeBins) {
  histogram h;
  const std::size_t top = h.bin_count() - 1;
  // Values far past the layout (and +inf) must clamp to the top bin, not
  // index past the counts.
  h.add(1.0e308);
  h.add(std::numeric_limits<double>::max());
  h.add(kInf);
  h.add(2.5e7);  // ordinary overshoot, same top bin
  // Below-range (including hugely so) lands in bin 0.
  h.add(-1.0e308);
  h.add(-kInf);
  h.add(-5.0);
  h.add(std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.count_in_bin(top), 4u);
  EXPECT_EQ(h.count_in_bin(0), 4u);
  // Quantiles stay inside the layout even with saturated edges.
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = h.quantile_interpolated(q);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, h.bin_upper(top));
  }
}

TEST(HistogramEdge, NaNSampleCountsWithoutPoisoning) {
  histogram h;
  h.add(kNaN);  // fails every comparison -> bin 0, like a negative sample
  h.add(7.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_TRUE(std::isfinite(h.quantile_interpolated(0.5)));
}

TEST(HistogramEdge, SubOneSamplesErrAtMostOneAbsolute) {
  // Bin 0 has no relative bound: it holds [0, 1) as one bin.
  rng gen{5};
  histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(gen.uniform());
    h.add(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  for (int step = 0; step <= 20; ++step) {
    const double q = step / 20.0;
    EXPECT_LT(std::abs(h.quantile_interpolated(q) -
                       reference_quantile(samples, q)),
              1.0);
  }
}

TEST(HistogramEdge, InterpolationMatchesReconstructedSamples) {
  rng gen{0x9e3779b97f4a7c15ULL};
  for (int trial = 0; trial < 200; ++trial) {
    histogram h;
    // Clustered draws (many samples per bin) around a random scale, with
    // a deliberate out-of-range tail at both ends.
    const double scale = std::exp2(gen.uniform(-2.0, 25.0));
    const auto n = static_cast<std::size_t>(gen.uniform_int(1, 160));
    for (std::size_t i = 0; i < n; ++i) {
      if (gen.bernoulli(0.1)) {
        h.add(gen.bernoulli(0.5) ? 1.0e307 : -1.0e307);
      } else {
        h.add(scale * gen.uniform(0.9, 1.3));
      }
    }
    const std::vector<double> samples = reconstructed_samples(h);
    ASSERT_EQ(samples.size(), h.total());
    ASSERT_TRUE(std::is_sorted(samples.begin(), samples.end()));
    for (int k = 0; k < 8; ++k) {
      const double q = gen.uniform();
      const double expected = reference_quantile(samples, q);
      EXPECT_NEAR(h.quantile_interpolated(q), expected,
                  1.0e-9 * std::max(1.0, std::abs(expected)))
          << "trial " << trial << " q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(0.0), samples.front());
    EXPECT_DOUBLE_EQ(h.quantile_interpolated(1.0), samples.back());
  }
}

}  // namespace
}  // namespace mca::util
