// Streaming and batch descriptive statistics.
//
// `running_stats` uses Welford's algorithm so simulated servers can track
// response-time moments over millions of requests without storing samples.
// `summary_of` computes the batch view (percentiles included) used when a
// bench needs the interpercentile bands the paper plots.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mca::util {

/// Online mean/variance/min/max accumulator (Welford); mergeable.
class running_stats {
 public:
  void add(double x) noexcept;
  /// Combines two accumulators as if all samples were seen by one.
  void merge(const running_stats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  /// Mean of the samples; 0 when empty.
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Element-wise merge of two equal-length accumulator arrays:
/// dst[i].merge(src[i]) for every i.
/// Throws std::invalid_argument on mismatched lengths.
void merge_each(std::span<running_stats> dst, std::span<const running_stats> src);

/// Batch summary of a sample set.
struct summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p5 = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
};

/// Linear-interpolation percentile of samples sorted ascending, q in
/// [0,1].  Throws std::invalid_argument on an empty set or q outside
/// [0,1].
double percentile_sorted(std::span<const double> sorted, double q);

/// Full batch summary; throws std::invalid_argument on an empty set.
summary summary_of(std::span<const double> samples);

/// Mean of a sample set; 0 when empty.
double mean_of(std::span<const double> samples) noexcept;

}  // namespace mca::util
