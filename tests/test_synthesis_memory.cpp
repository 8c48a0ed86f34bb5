// Memory gate for the study synthesis.
//
// The counting allocator (counting_allocator.h) tracks the bytes live and
// their high-water mark, so the test below checks the synthesis' memory
// contract exactly: the study is held in one gap-sized array plus a small
// working set.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "client/usage_trace.h"
#include "counting_allocator.h"

namespace mca {
namespace {

using counting::allocation_window;

TEST(SynthesisMemory, StudyHoldsOneGapArrayAndASmallWorkingSet) {
  // The bound is the design's sum, in units of the gap array at the 2
  // bytes a whole-millisecond gap is stored in:
  //  * the gap array, reserved once at the study's expected-count bound,
  //    whose capacity UsageTrace.DeterministicForSeed holds within 1.1x of
  //    the size for the default study;
  //  * the synthesis' working set: one hour's sessions and the events
  //    that run past it, a few thousand 8-byte events (under 0.03 of the
  //    ~2.2M-gap array at 2 bytes a gap).
  // The distribution takes the array as it is, with no copy and no sort.
  // That sums to below 1.1 + 0.03 = 1.13.  The bound, 1.35, sits at 1.1
  // plus a quarter: it fails any design that keeps a second array of a
  // quarter of the array's bytes alive at once, such as one participant's
  // events (a sixth of the gaps at 8 bytes each, 1.3x the array), the
  // gaps held as doubles before conversion (4x), or a store of 4- or
  // 8-byte gaps (2x or 4x on its own).  Seed 9 peaks at 1.05x; the same
  // streaming synthesis into an 8-byte store peaked at 4.14x.
  constexpr std::size_t kBytesPerGap = sizeof(std::uint16_t);
  std::size_t peak = 0;
  std::size_t size = 0;
  {
    const allocation_window window;
    const auto dist = client::study_interarrival_distribution({}, 9);
    peak = window.peak();
    size = dist.samples().size();
  }
  ASSERT_GT(size, 2'000'000u);
  const double array_bytes = static_cast<double>(size * kBytesPerGap);
  EXPECT_LE(static_cast<double>(peak), 1.35 * array_bytes)
      << "peak " << peak << " bytes for a " << array_bytes << "-byte array";
}

}  // namespace
}  // namespace mca
