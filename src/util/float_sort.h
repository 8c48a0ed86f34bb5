// Exact sort for arrays of doubles, in linear time on spread-out input.
//
// The smartphone study sorts ~2.2M event timestamps and ~2.2M gaps per
// replication; a comparison sort spends more on them than the random
// draws that made them.  `sort_doubles` maps each value to its
// order-preserving IEEE-754 key, buckets by the key's high bits above the
// array's smallest key, and insertion-sorts each bucket.  A bucket too
// full for insertion sort falls back to std::sort, so clustered input
// costs O(n log n), never O(n²).
#pragma once

#include <cstddef>
#include <span>

namespace mca::util {

/// Sorts `values` ascending in place.
///
/// Precondition, as for std::sort's strict weak ordering: no NaN.  ±inf,
/// subnormals and mixed signs are fine.  Two doubles that compare equal
/// share their bit pattern unless they are +0.0 and −0.0, so for any input
/// without a ±0 tie the result is byte-identical to std::sort's (every
/// correct ascending sort of one multiset is).  Like std::sort, it leaves
/// a ±0 tie in no particular order.
///
/// Allocates a scratch array of values.size() doubles and a bucket-count
/// array of at most values.size() / 8 + 1 entries while it runs.
///
/// Returns the work done, in element steps: one per element bucketed, one
/// per insertion-sort shift, and ⌊log₂ b⌋ + 1 per element of a bucket of b
/// elements that falls back to std::sort (an array of at most 64 elements
/// is one such bucket).
std::size_t sort_doubles(std::span<double> values);

}  // namespace mca::util
