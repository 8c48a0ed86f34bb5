// The one histogram: a fixed log-linear layout for latencies and other
// non-negative, long-tailed observations.
#pragma once

#include <cstddef>
#include <vector>

namespace mca::util {

/// Log-linear histogram with one fixed layout (after HdrHistogram and
/// DDSketch): every octave [2^e, 2^(e+1)), e in [0, 24), is split into 32
/// equal sub-bins, below them bin 0 covers [0, 1), and nothing is a
/// parameter.  Every histogram shares the layout, so any two merge bin for
/// bin.  No sample is dropped: NaN and negative samples land in bin 0, and
/// samples at or beyond 2^24 (ms: ~4.66 h), +inf included, land in the top
/// bin.
///
/// Error bound: every bin above bin 0 is at most 1/32 as wide as its lower
/// edge, so for exact order statistics in [1, 2^24) quantile_interpolated
/// is within a relative 2^-5 (3.125%) of them.  Below 1 the error is
/// absolute, at most 1.
class histogram {
 public:
  static constexpr std::size_t kSubBins = 32;  ///< per octave (5 mantissa bits)
  static constexpr std::size_t kOctaves = 24;  ///< [1, 2^24)
  static constexpr std::size_t kBins = 1 + kOctaves * kSubBins;

  histogram() : counts_(kBins, 0) {}

  void add(double x) noexcept;
  /// Combines counts as if all of `other`'s samples were added here.
  void merge(const histogram& other) noexcept;
  /// Replaces this histogram's counts with the bin-wise difference
  /// `cur - prev` — the samples added to `cur` since it looked like
  /// `prev`.  `prev` must be an earlier snapshot of `cur` (total <= cur's);
  /// throws std::invalid_argument otherwise.  Allocation-free, so per-window
  /// telemetry deltas (obs::timeline) can use it at slot rate.
  void assign_difference(const histogram& cur, const histogram& prev);
  /// Adds `count` samples to `bin`, as if `count` values in
  /// [bin_lower(bin), bin_upper(bin)) were added: how counts kept in a
  /// compact per-bin form re-enter a histogram.  Throws std::out_of_range
  /// past the last bin.
  void add_to_bin(std::size_t bin, std::size_t count);
  std::size_t total() const noexcept { return total_; }
  std::size_t bin_count() const noexcept { return kBins; }
  std::size_t count_in_bin(std::size_t bin) const { return counts_.at(bin); }
  /// Inclusive lower and exclusive upper edge of a bin (the top bin's
  /// upper edge is 2^24 although it also holds larger samples).  Throw
  /// std::out_of_range past the last bin.
  double bin_lower(std::size_t bin) const;
  double bin_upper(std::size_t bin) const;
  /// Quantile with within-bin linear interpolation (numpy's "linear"
  /// method applied to the binned samples): the c samples of a bin are
  /// placed at evenly spaced positions (j + 0.5)/c across it, and the
  /// fractional rank q*(total-1) interpolates between adjacent sample
  /// values.  Throws std::logic_error when empty and std::invalid_argument
  /// unless q is in [0,1] (NaN included).
  double quantile_interpolated(double q) const;

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace mca::util
