// Memory gate for the study synthesis.
//
// Global operator new/delete are replaced with wrappers that track the
// bytes live and their high-water mark, so the test below checks the
// synthesis' memory contract exactly, with no wall clock and no RSS read:
// the study is held in one gap-sized array plus a small working set.  The
// test is single-threaded, so the tallies are plain globals.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

#include "client/usage_trace.h"

namespace {

std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;

/// Every block carries its size in a header of this many bytes, which
/// keeps the default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void note_allocation(std::size_t size) {
  g_live_bytes += size;
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

/// Live bytes and their high-water mark over one scope, relative to the
/// bytes already live when it began.
class allocation_window {
 public:
  allocation_window() : live_at_start_{g_live_bytes} {
    g_peak_bytes = g_live_bytes;
  }
  std::size_t peak() const { return g_peak_bytes - live_at_start_; }

 private:
  std::size_t live_at_start_;
};

TEST(SynthesisMemory, StudyHoldsOneGapArrayAndASmallWorkingSet) {
  // The bound is the design's sum:
  //  * the gap array, reserved once at the study's expected-count bound,
  //    whose capacity UsageTrace.DeterministicForSeed holds within 1.1x of
  //    the size for the default study;
  //  * the synthesis' working set: one hour's sessions and the events
  //    that run past it, a few thousand events against ~2.2M gaps.
  // The distribution takes the array as it is, with no copy and no sort.
  // That sums to below 1.1 + 0.01 = 1.11.  The bound, 1.35, sits at 1.1
  // plus a quarter: it fails any design that keeps a second array of a
  // quarter of the gaps alive at once, such as one participant's events
  // (a sixth of them, in a vector grown by doubling), a copy of the gaps,
  // or the n-double scratch of a sort.  A synthesis that held every
  // participant's events and sorted with an n-double scratch peaked at
  // 2.45x here; one that streamed participants peaked at ~1.06x.
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

}  // namespace
}  // namespace mca
