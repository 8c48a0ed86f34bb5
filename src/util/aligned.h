// Minimal over-aligned allocator for cache-line-conscious containers.
//
// std::allocator only guarantees alignof(T); the event heap wants its
// 4-entry child groups to start on cache-line boundaries so one group
// costs one line.
#pragma once

#include <cstddef>
#include <new>

namespace mca::util {

inline constexpr std::size_t kCacheLine = 64;

template <typename T, std::size_t Alignment = kCacheLine>
struct aligned_allocator {
  using value_type = T;
  // Explicit rebind: the non-type Alignment parameter defeats the
  // allocator_traits auto-rebind.
  template <typename U>
  struct rebind {
    using other = aligned_allocator<U, Alignment>;
  };

  aligned_allocator() noexcept = default;
  template <typename U>
  aligned_allocator(const aligned_allocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const aligned_allocator<U, Alignment>&) const noexcept {
    return true;
  }
};

}  // namespace mca::util
