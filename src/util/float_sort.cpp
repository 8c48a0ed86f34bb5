#include "util/float_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace mca::util {
namespace {

/// Buckets up to this size are insertion-sorted and larger ones fall back
/// to std::sort; arrays up to it go to std::sort without bucketing.
constexpr std::size_t kInsertionMax = 64;

/// Within a top-level bucket, at most one sub-bucket per 2^kLoadShift
/// elements: the count array stays a sixteenth of the bucket's bytes, and
/// a sub-bucket averages a few shifts.
constexpr int kLoadShift = 3;

/// The in-place top-level pass partitions by this many high key bits.
constexpr int kTopBits = 8;
constexpr std::size_t kTopBuckets = std::size_t{1} << kTopBits;

/// Ascending doubles map to ascending keys: a non-negative value keeps its
/// bits with the sign bit set; a negative one has every bit flipped.
std::uint64_t key_of(double x) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// std::sort in place, with its work in element steps.
std::size_t fallback_sort(std::span<double> values) {
  std::sort(values.begin(), values.end());
  return values.size() * static_cast<std::size_t>(std::bit_width(values.size()));
}

/// Smallest and largest key in a non-empty span.
std::pair<std::uint64_t, std::uint64_t> key_range(
    std::span<const double> values) noexcept {
  std::uint64_t lo = key_of(values[0]);
  std::uint64_t hi = lo;
  for (const double x : values) {
    const std::uint64_t key = key_of(x);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  return {lo, hi};
}

/// Sorts one top-level bucket: insertion sort when it is small, otherwise
/// a scatter into `scratch` by the key's high bits above the bucket's
/// smallest key and an insertion (or, when overfull, std::sort) pass back.
/// `scratch` holds at least values.size() doubles and `ends` has capacity
/// for values.size() / 8 + 1 counters, so neither grows here.
std::size_t bucket_sort(std::span<double> values, std::vector<double>& scratch,
                        std::vector<std::uint32_t>& ends) {
  const std::size_t n = values.size();
  std::size_t work = 0;
  if (n <= kInsertionMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const double x = values[i];
      std::size_t j = i;
      for (; j > 0 && values[j - 1] > x; --j) values[j] = values[j - 1];
      work += i - j;
      values[j] = x;
    }
    return work;
  }

  const auto [lo, hi] = key_range(values);
  if (lo == hi) return n;  // every element has the same bits

  // A value's sub-bucket is the top bits of its key's offset from the
  // smallest key, so sub-buckets are ascending and within one the order is
  // the order of doubles.
  const int bucket_bits = static_cast<int>(std::bit_width(n)) - 1 - kLoadShift;
  const int shift =
      std::max(static_cast<int>(std::bit_width(hi - lo)) - bucket_bits, 0);
  const auto bucket_of = [lo, shift](double x) {
    return static_cast<std::size_t>((key_of(x) - lo) >> shift);
  };

  // Counts, then start offsets, then (after the scatter) end offsets.
  ends.assign(static_cast<std::size_t>((hi - lo) >> shift) + 1, 0);
  for (const double x : values) ++ends[bucket_of(x)];
  std::uint32_t start = 0;
  for (std::uint32_t& slot : ends) {
    const std::uint32_t count = slot;
    slot = start;
    start += count;
  }
  for (const double x : values) scratch[ends[bucket_of(x)]++] = x;

  // Each sub-bucket goes back into `values` by insertion, or, when
  // overfull, by a copy and std::sort.
  work = n;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    if (end - begin > kInsertionMax) {
      std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(begin),
                scratch.begin() + static_cast<std::ptrdiff_t>(end),
                values.begin() + static_cast<std::ptrdiff_t>(begin));
      work += fallback_sort(values.subspan(begin, end - begin));
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const double x = scratch[i];
        std::size_t j = i;
        for (; j > begin && values[j - 1] > x; --j) values[j] = values[j - 1];
        work += i - j;
        values[j] = x;
      }
    }
    begin = end;
  }
  return work;
}

}  // namespace

std::size_t sort_doubles(std::span<double> values) {
  const std::size_t n = values.size();
  if (n <= kInsertionMax || n > std::numeric_limits<std::uint32_t>::max()) {
    return fallback_sort(values);
  }

  const auto [lo, hi] = key_range(values);
  if (lo == hi) return n;  // every element has the same bits

  // Top level: an in-place (American-flag) partition by the high bits of
  // each key's offset from the smallest key, so the buckets are ascending
  // and each one can be sorted on its own.
  const int shift =
      std::max(static_cast<int>(std::bit_width(hi - lo)) - kTopBits, 0);
  const auto bucket_of = [lo, shift](double x) {
    return static_cast<std::size_t>((key_of(x) - lo) >> shift);
  };
  std::array<std::size_t, kTopBuckets + 1> bounds{};
  for (const double x : values) ++bounds[bucket_of(x) + 1];
  for (std::size_t b = 1; b <= kTopBuckets; ++b) bounds[b] += bounds[b - 1];

  // Cycle leader: take the element at bucket b's next unfilled slot, and
  // swap it into the next unfilled slot of its own bucket until an element
  // of bucket b comes back.  Every element moves at most once.
  std::array<std::size_t, kTopBuckets> next{};
  std::copy(bounds.begin(), bounds.end() - 1, next.begin());
  for (std::size_t b = 0; b < kTopBuckets; ++b) {
    while (next[b] < bounds[b + 1]) {
      double x = values[next[b]];
      for (std::size_t d = bucket_of(x); d != b; d = bucket_of(x)) {
        std::swap(x, values[next[d]++]);
      }
      values[next[b]++] = x;
    }
  }

  // Scratch sized once, for the largest bucket the sub-bucket pass sees.
  std::size_t largest = 0;
  for (std::size_t b = 0; b < kTopBuckets; ++b) {
    largest = std::max(largest, bounds[b + 1] - bounds[b]);
  }
  std::vector<double> scratch;
  std::vector<std::uint32_t> ends;
  if (largest > kInsertionMax) {
    scratch.resize(largest);
    ends.reserve((largest >> kLoadShift) + 1);
  }
  std::size_t work = n;
  for (std::size_t b = 0; b < kTopBuckets; ++b) {
    work += bucket_sort(values.subspan(bounds[b], bounds[b + 1] - bounds[b]),
                        scratch, ends);
  }
  return work;
}

}  // namespace mca::util
