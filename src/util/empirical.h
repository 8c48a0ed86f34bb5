// Empirical distribution: uniform draws from a stored sample set.
//
// `empirical_distribution` replays a measured set of durations (e.g. the
// smartphone-study inter-arrival times) as a generative distribution: a
// draw returns one stored sample, picked uniformly by index, so its law is
// the samples' ECDF.  Picking by index needs no order, so the samples stay
// in the order given and nothing sorts them.  Samples are whole
// milliseconds, 0–65535 ms, 2 bytes each: the resolution a tracker logs,
// and the study's 100–5000 ms band with room to spare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mca::util {

/// The index ⌊u·n⌋ of a uniform u in [0, 1) into n > 0 items, clamped to
/// n − 1: the rounded product u·n may equal n, which would read one past
/// the end.
constexpr std::size_t uniform_index(double u, std::size_t n) noexcept {
  const auto i = static_cast<std::size_t>(u * static_cast<double>(n));
  return i < n ? i : n - 1;
}

/// Samplable wrapper around a set of observed durations in whole ms.
class empirical_distribution {
 public:
  /// Takes the samples by value, so a caller that moves its array in pays
  /// no copy: the study's ~2.2M gaps become the distribution's storage, in
  /// synthesis order.  Throws std::invalid_argument on an empty sample
  /// set.
  explicit empirical_distribution(std::vector<std::uint16_t> samples_ms)
      : samples_{std::move(samples_ms)} {
    if (samples_.empty()) {
      throw std::invalid_argument{"empirical_distribution: no samples"};
    }
  }

  /// One stored sample in ms, uniformly by index: exactly one rng draw.
  double sample(rng& r) const noexcept {
    return samples_[uniform_index(r.uniform(), samples_.size())];
  }

  /// The samples in ms, in the order given.
  std::span<const std::uint16_t> samples() const noexcept { return samples_; }

 private:
  std::vector<std::uint16_t> samples_;
};

}  // namespace mca::util
