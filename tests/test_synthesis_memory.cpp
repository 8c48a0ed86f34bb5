// Memory gate for the study synthesis and its sort.
//
// Global operator new/delete are replaced with wrappers that track the
// bytes live and their high-water mark, so the tests below check the
// synthesis' memory contract exactly, with no wall clock and no RSS read:
// the study is held in one gap-sized array plus a small working set, and
// sort_doubles works in place.  The test is single-threaded, so the
// tallies are plain globals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "client/usage_trace.h"
#include "util/float_sort.h"
#include "util/rng.h"

namespace {

std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;
std::size_t g_allocated_bytes = 0;

/// Every block carries its size in a header of this many bytes, which
/// keeps the default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void note_allocation(std::size_t size) {
  g_live_bytes += size;
  g_allocated_bytes += size;
  if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
}

void* counted_alloc(std::size_t size, std::size_t header) {
  void* block = nullptr;
  if (posix_memalign(&block, header, header + size) != 0) {
    throw std::bad_alloc{};
  }
  auto* user = static_cast<unsigned char*>(block) + header;
  std::memcpy(user - sizeof size, &size, sizeof size);
  note_allocation(size);
  return user;
}

void counted_free(void* p, std::size_t header) noexcept {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, user - sizeof size, sizeof size);
  g_live_bytes -= size;
  std::free(user - header);
}

std::size_t header_for(std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return a > kHeader ? a : kHeader;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, kHeader); }
void* operator new[](std::size_t size) { return counted_alloc(size, kHeader); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, header_for(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, header_for(align));
}
void operator delete(void* p) noexcept { counted_free(p, kHeader); }
void operator delete[](void* p) noexcept { counted_free(p, kHeader); }
void operator delete(void* p, std::size_t) noexcept {
  counted_free(p, kHeader);
}
void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p, kHeader);
}
void operator delete(void* p, std::align_val_t align) noexcept {
  counted_free(p, header_for(align));
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  counted_free(p, header_for(align));
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  counted_free(p, header_for(align));
}
void operator delete[](void* p, std::size_t, std::align_val_t align) noexcept {
  counted_free(p, header_for(align));
}

namespace mca {
namespace {

/// Live bytes, high-water mark and total allocated over one scope, all
/// relative to the bytes already live when it began.
class allocation_window {
 public:
  allocation_window()
      : live_at_start_{g_live_bytes}, allocated_at_start_{g_allocated_bytes} {
    g_peak_bytes = g_live_bytes;
  }
  std::size_t peak() const { return g_peak_bytes - live_at_start_; }
  std::size_t allocated() const {
    return g_allocated_bytes - allocated_at_start_;
  }

 private:
  std::size_t live_at_start_;
  std::size_t allocated_at_start_;
};

TEST(SynthesisMemory, StudyHoldsOneGapArrayAndASmallWorkingSet) {
  // The bound is the design's sum:
  //  * the gap array, reserved once at the study's expected-count bound,
  //    whose capacity UsageTrace.DeterministicForSeed holds within 1.1x of
  //    the size for the default study;
  //  * sort_doubles' scratch, 8.5 bytes per element of its largest
  //    top-level bucket: the gaps span 5.6 binades, so a bucket covers
  //    1/32 of a binade, and the largest holds the ~2.5% of gaps clamped
  //    at 5000 ms plus about 1% around them, under 1/16 of the array's
  //    bytes (the general case is the lognormal test below);
  //  * the synthesis' working set: one hour's sessions and the events
  //    that run past it, a few thousand events against ~2.2M gaps.
  // That sums to below 1.1 + 1/16 + 0.01 ≈ 1.17.  The bound, 1.35, sits
  // at 1.1 plus a quarter: it fails any design that keeps a second array
  // of a quarter of the gaps alive at once, such as one participant's
  // events (a sixth of them, in a vector grown by doubling) or the
  // n-double scratch of a sort that is not in place.  A synthesis that
  // held every participant's events and sorted with an n-double scratch
  // peaked at 2.45x here; this one at ~1.06x.
  std::size_t peak = 0;
  std::size_t size = 0;
  {
    const allocation_window window;
    const auto dist = client::study_interarrival_distribution({}, 9);
    peak = window.peak();
    size = dist.size();
  }
  ASSERT_GT(size, 2'000'000u);
  const double array_bytes = static_cast<double>(size * sizeof(double));
  EXPECT_LE(static_cast<double>(peak), 1.35 * array_bytes)
      << "peak " << peak << " bytes for a " << array_bytes << "-byte array";
}

TEST(SynthesisMemory, SortDoublesAllocatesUnderASixteenthOfTheArray) {
  // sort_doubles' heap use is its largest top-level bucket: b doubles of
  // scratch and at most b / 8 + 1 four-byte counters, 8.5 bytes per
  // element of b.  The top level splits the key range into buckets of at
  // most 1/128 of it (2^(bit_width − 8) keys each).  10^6 draws of a
  // lognormal span about ±5σ, so a bucket covers at most 10σ/128 of
  // log-space, where the normal density peaks at 1/(σ√(2π)): at most
  // 3.1% of the values, or 4.5% with the up-to-1.44x density a binade's
  // linear mantissa adds over log-space.  That is 8.5 × 4.5% ≈ 0.38 bytes
  // per element, under the bound of 1/16 of 8 = 0.5; a sort that keeps
  // an n-double scratch allocates 16x the bound.
  util::rng r{4};
  std::vector<double> xs(1'000'000);
  for (double& x : xs) x = r.lognormal(std::log(900.0), 0.9);
  std::size_t allocated = 0;
  {
    const allocation_window window;
    util::sort_doubles(xs);
    allocated = window.allocated();
  }
  EXPECT_LT(allocated, xs.size() * sizeof(double) / 16);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
}

}  // namespace
}  // namespace mca
