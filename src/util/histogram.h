// Fixed-width and logarithmic histograms for latency distributions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mca::util {

/// Fixed-width histogram over [lo, hi); out-of-range samples land in
/// saturating edge bins so no observation is silently dropped.
class histogram {
 public:
  /// Throws std::invalid_argument if bins == 0 or hi <= lo.
  histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  /// Combines counts as if all of `other`'s samples were added here.
  /// Throws std::invalid_argument unless both histograms share the same
  /// range and bin count.
  void merge(const histogram& other);
  /// Replaces this histogram's counts with the bin-wise difference
  /// `cur - prev` — the samples added to `cur` since it looked like
  /// `prev`.  All three histograms must share the same layout and `prev`
  /// must be an earlier snapshot of `cur` (total <= cur's); throws
  /// std::invalid_argument otherwise.  Allocation-free, so per-window
  /// telemetry deltas (obs::timeline) can use it at slot rate.
  void assign_difference(const histogram& cur, const histogram& prev);
  std::size_t total() const noexcept { return total_; }
  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::size_t count_in_bin(std::size_t bin) const { return counts_.at(bin); }
  /// Inclusive lower edge of a bin.
  double bin_lower(std::size_t bin) const;
  double bin_width() const noexcept { return width_; }
  /// Approximate quantile from bin midpoints; q in [0,1].
  double quantile(double q) const;
  /// Quantile with within-bin linear interpolation (numpy's "linear"
  /// method applied to the binned samples): the c samples of a bin are
  /// placed at evenly spaced positions inside it, and the fractional rank
  /// q*(total-1) interpolates between adjacent sample values — exact on
  /// distributions with one sample per bin, and strictly finer than the
  /// midpoint quantile() everywhere else.  The SLO percentile extraction
  /// (p50/p95/p99/p99.9) builds on this.  Throws like quantile().
  double quantile_interpolated(double q) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// The latency layout every digest, SLO row and timeline window uses:
/// 250 ms bins to one minute, fine enough to separate the acceleration
/// levels and coarse enough that merged digests stay small.  One layout,
/// so every latency histogram merges bin for bin with every other.
histogram latency_histogram();

/// Power-of-two bucketed histogram (HdrHistogram-lite) for long-tailed
/// latency data; bucket i covers [2^i, 2^{i+1}) with a shared [0,1) bucket.
class log_histogram {
 public:
  explicit log_histogram(std::size_t max_buckets = 32);

  void add(double x) noexcept;
  /// Combines bucket counts; throws std::invalid_argument on a bucket
  /// count mismatch.
  void merge(const log_histogram& other);
  std::size_t total() const noexcept { return total_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::size_t count_in_bucket(std::size_t b) const { return counts_.at(b); }
  double bucket_lower(std::size_t b) const noexcept;
  /// One-line textual rendering ("[lo,hi): n ..."), for debug output.
  std::string to_string() const;

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace mca::util
