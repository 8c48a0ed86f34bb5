// Exact sort for arrays of doubles, in linear time on spread-out input.
//
// The smartphone study sorts ~2.2M gaps per replication; a comparison
// sort spends more on them than the random draws that made them.
// `sort_doubles` maps each value to its order-preserving IEEE-754 key and
// partitions the array in place into at most 256 buckets by the key's
// high bits above the array's smallest key (an American-flag pass).  Each
// bucket is then sorted on its own: scattered into sub-buckets by the high
// bits of the key's offset above the bucket's own smallest key, and
// insertion-sorted back.  A sub-bucket too full for
// insertion sort falls back to std::sort, so clustered input costs
// O(n log n), never O(n²).
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
/// Memory: O(buckets + largest bucket), not O(n).  While it runs it holds
/// two 256-entry offset arrays on the stack and, when the largest
/// top-level bucket has b > 64 elements, a scratch array of b doubles and
/// a sub-bucket-count array of at most b / 8 + 1 four-byte entries.
///
/// Returns the work done, in element steps: one per element per
/// bucketing pass (the top-level partition, and the sub-bucket scatter of
/// each top-level bucket of more than 64 elements), one per
/// insertion-sort shift, and ⌊log₂ b⌋ + 1 per element of a sub-bucket of
/// b elements that falls back to std::sort (an array of at most 64
/// elements is one such sub-bucket).
std::size_t sort_doubles(std::span<double> values);

}  // namespace mca::util
