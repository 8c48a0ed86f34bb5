// Empirical distribution with inverse-CDF sampling.
//
// `empirical_distribution` replays measured sample sets (e.g. the
// smartphone-study inter-arrival times) as a generative distribution:
// draws interpolate linearly between order statistics.
#pragma once

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/float_sort.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mca::util {

/// Samplable wrapper around a set of observed values.
class empirical_distribution {
 public:
  /// Takes the samples by value and sorts them in place (`sort_doubles`,
  /// whose scratch is the size of its largest top-level bucket, not of the
  /// array), so a caller that moves its array in pays no copy and no
  /// second array: the study's ~2.2M gaps become the distribution's
  /// storage.  Throws std::invalid_argument
  /// on an empty sample set, and on a NaN or ±inf sample, naming the first
  /// one's index: the sort needs a strict weak ordering, and an infinite
  /// order statistic would make draws infinite or NaN.
  explicit empirical_distribution(std::vector<double> samples)
      : sorted_{std::move(samples)} {
    if (sorted_.empty()) {
      throw std::invalid_argument{"empirical_distribution: no samples"};
    }
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
      if (!std::isfinite(sorted_[i])) {
        throw std::invalid_argument{
            "empirical_distribution: non-finite sample at index " +
            std::to_string(i)};
      }
    }
    sort_doubles(sorted_);
  }

  /// Draws by inverse transform with linear interpolation.
  double sample(rng& r) const {
    return percentile_sorted(sorted_, r.uniform());
  }

  double min() const noexcept { return sorted_.front(); }
  double max() const noexcept { return sorted_.back(); }
  std::size_t size() const noexcept { return sorted_.size(); }
  /// The samples in ascending order.
  std::span<const double> sorted() const noexcept { return sorted_; }
  summary stats() const { return summary_of_sorted(sorted_); }

 private:
  std::vector<double> sorted_;
};

}  // namespace mca::util
