// Portable SIMD kernels for the digest-merge path.
//
// Per-shard metric digests (769-bin latency histograms, Welford group
// stats) are merged once per replication and once per shard flush; after
// the backend-event overhaul those merges are a visible slice of the
// metrics phase.  The helpers here use GCC/Clang generic vector extensions
// — no intrinsics headers, no -march requirement, and a plain scalar loop
// on any other compiler — so the build stays dependency-free while gcc
// and clang emit SSE2/AVX/NEON adds for the baseline target.
//
// Only order-insensitive integer arithmetic is vectorized (lane grouping
// does not change a sum of u64s), so results are bit-identical to the
// scalar loops and digest fingerprints are unaffected.
#pragma once

#include <cstddef>
#include <cstring>

namespace mca::util::simd {

#if defined(__GNUC__) || defined(__clang__)
#define MCA_SIMD_GENERIC_VECTORS 1
#else
#define MCA_SIMD_GENERIC_VECTORS 0
#endif

/// dst[i] += src[i] over `n` unsigned counters — the histogram-merge
/// kernel.  Unaligned access goes through memcpy, which the vector
/// backends lower to plain vector loads/stores.
inline void add_counts(std::size_t* dst, const std::size_t* src,
                       std::size_t n) noexcept {
  std::size_t i = 0;
#if MCA_SIMD_GENERIC_VECTORS
  using count_x4
      __attribute__((vector_size(4 * sizeof(std::size_t)))) = std::size_t;
  for (; i + 4 <= n; i += 4) {
    count_x4 a;
    count_x4 b;
    std::memcpy(&a, dst + i, sizeof(a));
    std::memcpy(&b, src + i, sizeof(b));
    a += b;
    std::memcpy(dst + i, &a, sizeof(a));
  }
#endif
  for (; i < n; ++i) dst[i] += src[i];
}

}  // namespace mca::util::simd
