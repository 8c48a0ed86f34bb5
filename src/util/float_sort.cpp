#include "util/float_sort.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace mca::util {
namespace {

/// Buckets up to this size are insertion-sorted and larger ones fall back
/// to std::sort; arrays up to it go to std::sort without bucketing.
constexpr std::size_t kInsertionMax = 64;

/// At most one bucket per 2^kLoadShift elements: the count array stays a
/// sixteenth of the values' bytes, and a bucket averages a few shifts.
constexpr int kLoadShift = 3;

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

}  // namespace

std::size_t sort_doubles(std::span<double> values) {
  const std::size_t n = values.size();
  if (n <= kInsertionMax || n > std::numeric_limits<std::uint32_t>::max()) {
    return fallback_sort(values);
  }

  std::uint64_t lo = key_of(values[0]);
  std::uint64_t hi = lo;
  for (const double x : values) {
    const std::uint64_t key = key_of(x);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  if (lo == hi) return n;  // every element has the same bits

  // A value's bucket is the top bits of its key's offset from the
  // smallest key, so buckets are ascending and within one the order is
  // the order of doubles.
  const int bucket_bits = static_cast<int>(std::bit_width(n)) - 1 - kLoadShift;
  const int shift =
      std::max(static_cast<int>(std::bit_width(hi - lo)) - bucket_bits, 0);
  const auto bucket_of = [lo, shift](double x) {
    return static_cast<std::size_t>((key_of(x) - lo) >> shift);
  };

  // Counts, then start offsets, then (after the scatter) end offsets.
  std::vector<std::uint32_t> ends(
      static_cast<std::size_t>((hi - lo) >> shift) + 1, 0);
  for (const double x : values) ++ends[bucket_of(x)];
  std::uint32_t start = 0;
  for (std::uint32_t& slot : ends) {
    const std::uint32_t count = slot;
    slot = start;
    start += count;
  }
  std::vector<double> scratch(n);
  for (const double x : values) scratch[ends[bucket_of(x)]++] = x;

  // Each bucket goes back into `values` by insertion, or, when overfull,
  // by a copy and std::sort.
  std::size_t work = n;
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

}  // namespace mca::util
