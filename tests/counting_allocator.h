// Live-byte counting allocator for memory tests.
//
// Global operator new/delete are replaced with wrappers that track the
// bytes live and their high-water mark, so a test checks a memory
// contract exactly, with no wall clock and no RSS read.  This header
// defines the program's replacement allocation functions: include it from
// exactly one translation unit of a test binary.  The tallies are plain
// globals, so allocations must not overlap in time: a test runs on one
// thread, or hands work to one pool worker at a time while it waits (the
// pool's batch handoff orders the two threads' allocations).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

namespace mca::counting {

inline std::size_t g_live_bytes = 0;
inline std::size_t g_peak_bytes = 0;

/// Every block carries its size in a header of this many bytes, which
/// keeps the default new alignment.
inline constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

// Kept out of line: inlined into a caller, the header arithmetic shows
// GCC's -Wfree-nonheap-object (under LTO) a delete at an offset into the
// posix_memalign block.
[[gnu::noinline]] inline void* counted_alloc(std::size_t size,
                                             std::size_t header) {
  void* block = nullptr;
  if (posix_memalign(&block, header, header + size) != 0) {
    throw std::bad_alloc{};
  }
  auto* user = static_cast<unsigned char*>(block) + header;
  std::memcpy(user - sizeof size, &size, sizeof size);
  g_live_bytes += size;
  if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
  return user;
}

[[gnu::noinline]] inline void counted_free(void* p,
                                           std::size_t header) noexcept {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, user - sizeof size, sizeof size);
  g_live_bytes -= size;
  std::free(user - header);
}

inline std::size_t header_for(std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return a > kHeader ? a : kHeader;
}

/// The nothrow forms (std::get_temporary_buffer's, behind stable_sort)
/// must count too: a sanitizer runtime that replaces them itself would
/// otherwise hand counted_free a block without a size header.
inline void* counted_alloc_nothrow(std::size_t size,
                                   std::size_t header) noexcept {
  try {
    return counted_alloc(size, header);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

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

}  // namespace mca::counting

void* operator new(std::size_t size) {
  return mca::counting::counted_alloc(size, mca::counting::kHeader);
}
void* operator new[](std::size_t size) {
  return mca::counting::counted_alloc(size, mca::counting::kHeader);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return mca::counting::counted_alloc(size, mca::counting::header_for(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return mca::counting::counted_alloc(size, mca::counting::header_for(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mca::counting::counted_alloc_nothrow(size, mca::counting::kHeader);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mca::counting::counted_alloc_nothrow(size, mca::counting::kHeader);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return mca::counting::counted_alloc_nothrow(
      size, mca::counting::header_for(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return mca::counting::counted_alloc_nothrow(
      size, mca::counting::header_for(align));
}
void operator delete(void* p) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete[](void* p) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete(void* p, std::size_t) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete[](void* p, std::size_t) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete(void* p, std::align_val_t align) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
void operator delete[](void* p, std::size_t, std::align_val_t align) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  mca::counting::counted_free(p, mca::counting::kHeader);
}
void operator delete(void* p, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
void operator delete[](void* p, std::align_val_t align,
                       const std::nothrow_t&) noexcept {
  mca::counting::counted_free(p, mca::counting::header_for(align));
}
