// Empirical distribution with inverse-CDF sampling.
//
// `empirical_distribution` replays measured sample sets (e.g. the
// smartphone-study inter-arrival times) as a generative distribution:
// draws interpolate linearly between order statistics.
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace mca::util {

/// Samplable wrapper around a set of observed values.
class empirical_distribution {
 public:
  /// Throws std::invalid_argument on an empty sample set.
  explicit empirical_distribution(std::span<const double> samples)
      : sorted_{samples.begin(), samples.end()} {
    if (sorted_.empty()) {
      throw std::invalid_argument{"empirical_distribution: no samples"};
    }
    std::sort(sorted_.begin(), sorted_.end());
  }

  /// Draws by inverse transform with linear interpolation.
  double sample(rng& r) const {
    return percentile_sorted(sorted_, r.uniform());
  }

  double min() const noexcept { return sorted_.front(); }
  double max() const noexcept { return sorted_.back(); }
  std::size_t size() const noexcept { return sorted_.size(); }
  summary stats() const { return summary_of(sorted_); }

 private:
  std::vector<double> sorted_;
};

}  // namespace mca::util
