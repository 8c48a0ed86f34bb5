#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace mca::util {
namespace {

// A double's bits shifted right by kKeyShift keep the sign, the exponent
// and the top 5 mantissa bits: for x >= 1 that key ascends with x, one key
// per 1/32-octave sub-bin.  kOneKey is the key of 1.0, the lower edge of
// bin 1, so a sample's bin is 1 + key - kOneKey.
constexpr int kKeyShift = 52 - 5;
static_assert(histogram::kSubBins == std::size_t{1} << (52 - kKeyShift));
constexpr std::uint64_t kOneKey = std::bit_cast<std::uint64_t>(1.0) >> kKeyShift;
constexpr double kTop = static_cast<double>(std::uint64_t{1} << histogram::kOctaves);

/// Lower edge of bin 1 + k, k in [0, kBins - 1]: the inverse of the key.
double edge(std::size_t k) noexcept {
  return std::bit_cast<double>((kOneKey + k) << kKeyShift);
}

}  // namespace

// One bin increment per successful response (digest latency + per-group
// SLO histograms) and per series observation.
// mca:hot-path-begin(histogram-add)
void histogram::add(double x) noexcept {
  std::size_t bin = 0;
  // `>=` routes +inf to the top bin; NaN fails both comparisons and lands
  // in bin 0 with the negative and sub-1 samples.
  if (x >= kTop) {
    bin = kBins - 1;
  } else if (x >= 1.0) {
    bin = 1 + static_cast<std::size_t>(
                  (std::bit_cast<std::uint64_t>(x) >> kKeyShift) - kOneKey);
  }
  ++counts_[bin];
  ++total_;
}
// mca:hot-path-end

void histogram::merge(const histogram& other) noexcept {
  for (std::size_t b = 0; b < kBins; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

void histogram::assign_difference(const histogram& cur, const histogram& prev) {
  if (prev.total_ > cur.total_) {
    throw std::invalid_argument{"histogram: difference would be negative"};
  }
  for (std::size_t b = 0; b < kBins; ++b) {
    counts_[b] = cur.counts_[b] - prev.counts_[b];
  }
  total_ = cur.total_ - prev.total_;
}

void histogram::add_to_bin(std::size_t bin, std::size_t count) {
  counts_.at(bin) += count;
  total_ += count;
}

double histogram::bin_lower(std::size_t bin) const {
  if (bin >= kBins) throw std::out_of_range{"histogram: bin index"};
  return bin == 0 ? 0.0 : edge(bin - 1);
}

double histogram::bin_upper(std::size_t bin) const {
  if (bin >= kBins) throw std::out_of_range{"histogram: bin index"};
  return edge(bin);
}

double histogram::quantile_interpolated(double q) const {
  if (total_ == 0) throw std::logic_error{"histogram: quantile of empty"};
  // Negated-range form so NaN (which fails every comparison) is rejected
  // here instead of reaching the rank cast below, which would be UB.
  if (!(q >= 0.0 && q <= 1.0)) {
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
  for (std::size_t b = 0; b < kBins && seen <= hi_rank; ++b) {
    const std::size_t c = counts_[b];
    if (c == 0) continue;
    const double lower = bin_lower(b);
    const double width = bin_upper(b) - lower;
    const auto sample_at = [&](std::size_t k) {
      return lower + width * (static_cast<double>(k - seen) + 0.5) /
                         static_cast<double>(c);
    };
    if (lo_rank >= seen && lo_rank < seen + c) lo_value = sample_at(lo_rank);
    if (hi_rank >= seen && hi_rank < seen + c) hi_value = sample_at(hi_rank);
    seen += c;
  }
  return lo_value + frac * (hi_value - lo_value);
}

}  // namespace mca::util
