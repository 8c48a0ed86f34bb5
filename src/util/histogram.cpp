#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/simd.h"

namespace mca::util {

histogram latency_histogram() { return histogram{0.0, 60'000.0, 240}; }

histogram::histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, width_{(hi - lo) / static_cast<double>(bins)}, counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument{"histogram: bins == 0"};
  if (hi <= lo) throw std::invalid_argument{"histogram: hi <= lo"};
}

// One bin increment per successful response (digest latency + per-group
// SLO histograms) and per series observation (log buckets).
// mca:hot-path-begin(histogram-add)
void histogram::add(double x) noexcept {
  const double offset = (x - lo_) / width_;
  std::size_t bin = 0;
  // Saturate in double space BEFORE the integer cast: casting a double
  // beyond the destination range (a far-out-of-range sample, or +inf from
  // an overflowing (x - lo) / width) is undefined behavior, not a big
  // number.  `>=` also routes +inf to the top bin; NaN fails both
  // comparisons and lands in bin 0 like any non-positive offset.
  const auto top = static_cast<double>(counts_.size() - 1);
  if (offset >= top) {
    bin = counts_.size() - 1;
  } else if (offset > 0) {
    bin = static_cast<std::size_t>(offset);
  }
  ++counts_[bin];
  ++total_;
}
// mca:hot-path-end

void histogram::merge(const histogram& other) {
  if (lo_ != other.lo_ || width_ != other.width_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument{"histogram: merge of mismatched layouts"};
  }
  // Bin-count addition is order-insensitive integer math, so the
  // vectorized kernel is bit-identical to the former scalar loop.
  simd::add_counts(counts_.data(), other.counts_.data(), counts_.size());
  total_ += other.total_;
}

void histogram::assign_difference(const histogram& cur, const histogram& prev) {
  if (lo_ != cur.lo_ || width_ != cur.width_ ||
      counts_.size() != cur.counts_.size() || lo_ != prev.lo_ ||
      width_ != prev.width_ || counts_.size() != prev.counts_.size()) {
    throw std::invalid_argument{"histogram: difference of mismatched layouts"};
  }
  if (prev.total_ > cur.total_) {
    throw std::invalid_argument{"histogram: difference would be negative"};
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] = cur.counts_[b] - prev.counts_[b];
  }
  total_ = cur.total_ - prev.total_;
}

double histogram::bin_lower(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range{"histogram: bin index"};
  return lo_ + width_ * static_cast<double>(bin);
}

double histogram::quantile(double q) const {
  if (total_ == 0) throw std::logic_error{"histogram: quantile of empty"};
  // Negated-range form so NaN (which fails every comparison) is rejected
  // here instead of reaching the rank cast below, which would be UB.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument{"histogram: q outside [0,1]"};
  }
  const auto target = static_cast<std::size_t>(
      q * static_cast<double>(total_ - 1));
  std::size_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen > target) return bin_lower(b) + width_ / 2.0;
  }
  return bin_lower(counts_.size() - 1) + width_ / 2.0;
}

double histogram::quantile_interpolated(double q) const {
  if (total_ == 0) throw std::logic_error{"histogram: quantile of empty"};
  if (!(q >= 0.0 && q <= 1.0)) {  // negated form: NaN rejected, see quantile()
    throw std::invalid_argument{"histogram: q outside [0,1]"};
  }
  // Value of the k-th sample (0-based, ascending): the c samples in a bin
  // sit at evenly spaced offsets (j + 0.5)/c of the bin width, so within-
  // bin order is resolved uniformly.  One pass serves both ranks because
  // hi is either lo or its successor.
  const double rank = q * static_cast<double>(total_ - 1);
  const auto lo_rank = static_cast<std::size_t>(rank);
  const std::size_t hi_rank = std::min(lo_rank + 1, total_ - 1);
  const double frac = rank - static_cast<double>(lo_rank);
  double lo_value = 0.0;
  double hi_value = 0.0;
  std::size_t seen = 0;
  for (std::size_t b = 0; b < counts_.size() && seen <= hi_rank; ++b) {
    const std::size_t c = counts_[b];
    if (c == 0) continue;
    const auto sample_at = [&](std::size_t k) {
      return bin_lower(b) +
             width_ * (static_cast<double>(k - seen) + 0.5) /
                 static_cast<double>(c);
    };
    if (lo_rank >= seen && lo_rank < seen + c) lo_value = sample_at(lo_rank);
    if (hi_rank >= seen && hi_rank < seen + c) hi_value = sample_at(hi_rank);
    seen += c;
  }
  return lo_value + frac * (hi_value - lo_value);
}

void log_histogram::merge(const log_histogram& other) {
  if (counts_.size() != other.counts_.size()) {
    throw std::invalid_argument{"log_histogram: merge of mismatched layouts"};
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

log_histogram::log_histogram(std::size_t max_buckets)
    : counts_(std::max<std::size_t>(max_buckets, 2), 0) {}

// mca:hot-path-begin(histogram-add)
void log_histogram::add(double x) noexcept {
  std::size_t bucket = 0;
  if (x >= 1.0) {
    // Clamp in double space first: log2(+inf) is +inf, and casting that
    // (or any exponent past the bucket range) to size_t is UB.  Finite
    // doubles have exponents < 1100, comfortably inside the clamp.
    const double exponent =
        std::min(std::log2(x), static_cast<double>(counts_.size() - 1));
    bucket = std::min(static_cast<std::size_t>(exponent) + 1,
                      counts_.size() - 1);
  }
  ++counts_[bucket];
  ++total_;
}
// mca:hot-path-end

double log_histogram::bucket_lower(std::size_t b) const noexcept {
  if (b == 0) return 0.0;
  return std::pow(2.0, static_cast<double>(b - 1));
}

std::string log_histogram::to_string() const {
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    out << "[" << bucket_lower(b) << ","
        << (b + 1 < counts_.size() ? bucket_lower(b + 1) : -1.0) << "): "
        << counts_[b] << " ";
  }
  return out.str();
}

}  // namespace mca::util
