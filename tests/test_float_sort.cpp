#include "util/float_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace mca::util {
namespace {

/// Sorts a copy with sort_doubles and another with std::sort and checks
/// the two agree bit for bit; returns sort_doubles' work.
std::size_t expect_matches_std_sort(const std::vector<double>& input,
                                    const std::string& label) {
  std::vector<double> got = input;
  const std::size_t work = sort_doubles(got);
  std::vector<double> want = input;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ADD_FAILURE() << label << ": first difference at index " << i << " of "
                    << want.size() << ": " << got[i] << " vs " << want[i];
      break;
    }
  }
  return work;
}

std::size_t index_below(rng& r, std::size_t n) {
  return static_cast<std::size_t>(r.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

TEST(SortDoubles, TinyArrays) {
  expect_matches_std_sort({}, "n=0");
  expect_matches_std_sort({3.5}, "n=1");
  expect_matches_std_sort({2.0, 1.0}, "n=2 reversed");
  expect_matches_std_sort({1.0, 2.0}, "n=2 sorted");
}

TEST(SortDoubles, AllEqualSortedAndReversed) {
  // Above the insertion-sort cut-off, so the bucket path runs.
  const std::size_t n = 1'000;
  EXPECT_EQ(expect_matches_std_sort(std::vector<double>(n, 3.5), "all-equal"),
            n);
  std::vector<double> ascending(n);
  for (std::size_t i = 0; i < n; ++i) ascending[i] = 0.25 * static_cast<double>(i) - 40.0;
  expect_matches_std_sort(ascending, "already sorted");
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  expect_matches_std_sort(descending, "reversed");
}

TEST(SortDoubles, HeavyDuplicates) {
  rng r{1};
  const double levels[] = {-7.0, 0.5, 100.0, 100.0 + 1e-9, 5'000.0};
  std::vector<double> xs(20'000);
  for (double& x : xs) x = levels[index_below(r, 5)];
  expect_matches_std_sort(xs, "five distinct values");
}

TEST(SortDoubles, SubnormalsInfinitiesAndMixedSigns) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  rng r{2};
  std::vector<double> xs;
  for (int i = 0; i < 3'000; ++i) {
    const double sign = r.bernoulli(0.5) ? -1.0 : 1.0;
    switch (index_below(r, 4)) {
      case 0: xs.push_back(sign * kTiny * static_cast<double>(1 + index_below(r, 1'000))); break;
      case 1: xs.push_back(sign * std::numeric_limits<double>::min() * r.uniform()); break;
      case 2: xs.push_back(sign * r.uniform(0.0, 1e6)); break;
      default: xs.push_back(sign * std::numeric_limits<double>::max() * r.uniform()); break;
    }
  }
  xs.push_back(kInf);
  xs.push_back(-kInf);
  xs.push_back(0.0);  // one zero: no +0.0/-0.0 tie
  std::erase_if(xs, [](double x) { return x == 0.0 && std::signbit(x); });
  expect_matches_std_sort(xs, "subnormals, infinities and mixed signs");
}

TEST(SortDoubles, SpansThe1eMinus300To1e300Range) {
  rng r{3};
  std::vector<double> xs(10'000);
  for (double& x : xs) x = std::pow(10.0, r.uniform(-300.0, 300.0));
  expect_matches_std_sort(xs, "log-uniform over 600 decades");
}

TEST(SortDoubles, RandomLognormalsInLinearWork) {
  rng r{4};
  std::vector<double> xs(100'000);
  for (double& x : xs) x = r.lognormal(std::log(900.0), 0.9);
  const std::size_t work = expect_matches_std_sort(xs, "10^5 lognormals");
  // The bucket count grows with n, so the steps per element do not: about
  // ten here.
  EXPECT_LE(work, 12 * xs.size());
}

TEST(SortDoubles, ClusterWithOutlierStaysNearLinear) {
  // 10^5 values inside four ulps of 1.0 and one far outlier: bucketing by
  // the key range puts the whole cluster in one bucket, which insertion
  // sort would take ~n²/4 shifts to sort.  The std::sort fallback keeps
  // the work at n·log₂ n.
  rng r{5};
  std::vector<double> xs(100'000);
  for (double& x : xs) {
    x = 1.0;
    for (std::size_t k = index_below(r, 4); k > 0; --k) {
      x = std::nextafter(x, 2.0);
    }
  }
  xs[index_below(r, xs.size())] = 1e300;
  const std::size_t work = expect_matches_std_sort(xs, "ulp cluster + outlier");
  EXPECT_LE(work,
            xs.size() * (static_cast<std::size_t>(std::bit_width(xs.size())) + 2));
}

TEST(SortDoubles, SignedZeroTiesKeepTheirCount) {
  // std::sort leaves a +0.0/-0.0 tie in no particular order, and so does
  // sort_doubles; the zeros still sort between the negatives and the
  // positives, and none changes sign.
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(i % 2 == 0 ? 0.0 : -0.0);
  xs.push_back(1.0);
  xs.push_back(-1.0);
  sort_doubles(xs);
  EXPECT_EQ(xs.front(), -1.0);
  EXPECT_EQ(xs.back(), 1.0);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  EXPECT_EQ(std::count_if(xs.begin(), xs.end(),
                          [](double x) { return x == 0.0 && std::signbit(x); }),
            50);
}

}  // namespace
}  // namespace mca::util
