// The one FNV-1a accumulator behind every fingerprint (the obs registry,
// timeline and alert report, and exp's aggregate metrics).  Word-at-a-time
// over little-endian byte order so every fingerprint composes the same way.
#pragma once

#include <bit>
#include <cstdint>

namespace mca::obs {

struct fnv_state {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (w >> (i * 8)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  void real(double d) noexcept { word(std::bit_cast<std::uint64_t>(d)); }
};

}  // namespace mca::obs
