#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <vector>

namespace mca::util {
namespace {

// The standard engines' interface (result_type, min(), max(), operator()),
// so a std:: distribution or algorithm can draw from an rng stream.
static_assert(std::uniform_random_bit_generator<rng>);

TEST(Rng, DeterministicForSameSeed) {
  rng a{42};
  rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a{1};
  rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  rng r{7};
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += r.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  rng r{11};
  for (int i = 0; i < 1'000; ++i) {
    const double x = r.uniform(-5.0, 3.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  rng r{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(r.uniform_int(1, 6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, UniformIntSinglePoint) {
  rng r{3};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntThrowsOnInvertedBounds) {
  rng r{3};
  EXPECT_THROW(r.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, BernoulliExtremes) {
  rng r{9};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRateMatchesProbability) {
  rng r{10};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  rng r{13};
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += r.exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, ExponentialThrowsOnNonPositiveRate) {
  rng r{13};
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  rng r{17};
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LognormalMedianIsExpMu) {
  rng r{19};
  std::vector<double> xs;
  const int n = 100'001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(r.lognormal(2.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::exp(2.0), 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  rng parent{23};
  rng child = parent.fork();
  // Child and parent should not produce identical sequences.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  rng a{23};
  rng b{23};
  rng ca = a.fork();
  rng cb = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Rng, PickReturnsElementFromSpan) {
  rng r{29};
  const std::vector<int> items{1, 2, 3, 4};
  for (int i = 0; i < 100; ++i) {
    const int x = r.pick(std::span<const int>{items});
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
  }
}

TEST(Rng, PickThrowsOnEmpty) {
  rng r{29};
  const std::vector<int> empty;
  EXPECT_THROW(r.pick(std::span<const int>{empty}), std::invalid_argument);
}

TEST(RngSplit, DeterministicPureFunction) {
  rng a = rng::split(42, 7);
  rng b = rng::split(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngSplit, AdjacentStreamsDiverge) {
  rng a = rng::split(42, 0);
  rng b = rng::split(42, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngSplit, AdjacentSeedsDiverge) {
  rng a = rng::split(42, 3);
  rng b = rng::split(43, 3);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

// Statistical smoke test for stream independence: across a sweep's worth
// of streams, (1) every stream's uniforms look uniform, (2) no pair of
// adjacent streams is linearly correlated, and (3) the streams' raw words
// are bit-balanced.  `seed + i` seeding fails none of these on its own,
// but the split construction must not regress them either.
TEST(RngSplit, StreamIndependenceSmoke) {
  constexpr int kStreams = 16;
  constexpr int kDraws = 20'000;
  std::vector<std::vector<double>> uniforms(kStreams);
  double bit_total = 0.0;
  for (int s = 0; s < kStreams; ++s) {
    rng stream = rng::split(2017, static_cast<std::uint64_t>(s));
    uniforms[s].reserve(kDraws);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t word = stream();
      bit_total += std::popcount(word);
      uniforms[s].push_back(static_cast<double>(word >> 11) * 0x1.0p-53);
    }
  }
  // (1) per-stream mean near 1/2 (sd of the mean ~ 0.002).
  for (int s = 0; s < kStreams; ++s) {
    double mean = 0.0;
    for (const double u : uniforms[s]) mean += u;
    mean /= kDraws;
    EXPECT_NEAR(mean, 0.5, 0.01) << "stream " << s;
  }
  // (2) adjacent-stream correlation indistinguishable from zero
  // (|r| ~ N(0, 1/sqrt(n)); 5/sqrt(n) ~ 0.035).
  for (int s = 0; s + 1 < kStreams; ++s) {
    double xy = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      xy += (uniforms[s][i] - 0.5) * (uniforms[s + 1][i] - 0.5);
    }
    const double correlation = (xy / kDraws) / (1.0 / 12.0);
    EXPECT_LT(std::abs(correlation), 0.035) << "streams " << s << "," << s + 1;
  }
  // (3) bits are balanced: mean popcount of a uniform word is 32.
  EXPECT_NEAR(bit_total / (kStreams * kDraws), 32.0, 0.05);
}

TEST(Splitmix, KnownGolden) {
  // splitmix64 with a fixed state must be stable across platforms.
  std::uint64_t state = 0;
  const auto first = splitmix64(state);
  const auto second = splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t replay = 0;
  EXPECT_EQ(splitmix64(replay), first);
}

}  // namespace
}  // namespace mca::util
