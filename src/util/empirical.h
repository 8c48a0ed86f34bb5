// Empirical distribution: uniform draws from a stored sample set.
//
// `empirical_distribution` replays measured sample sets (e.g. the
// smartphone-study inter-arrival times) as a generative distribution: a
// draw returns one stored sample, picked uniformly by index, so its law is
// the samples' ECDF.  Picking by index needs no order, so the samples stay
// in the order given and nothing sorts them.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
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

/// Samplable wrapper around a set of observed values.
class empirical_distribution {
 public:
  /// Takes the samples by value, so a caller that moves its array in pays
  /// no copy: the study's ~2.2M gaps become the distribution's storage, in
  /// synthesis order.  Throws std::invalid_argument on an empty sample
  /// set, and on a NaN or ±inf sample, naming the first one's index: a
  /// draw would return it.
  explicit empirical_distribution(std::vector<double> samples)
      : samples_{std::move(samples)} {
    if (samples_.empty()) {
      throw std::invalid_argument{"empirical_distribution: no samples"};
    }
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      if (!std::isfinite(samples_[i])) {
        throw std::invalid_argument{
            "empirical_distribution: non-finite sample at index " +
            std::to_string(i)};
      }
    }
  }

  /// One stored sample, uniformly by index: exactly one rng draw.
  double sample(rng& r) const noexcept {
    return samples_[uniform_index(r.uniform(), samples_.size())];
  }

  std::size_t size() const noexcept { return samples_.size(); }
  /// The samples in the order given.
  std::span<const double> samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace mca::util
