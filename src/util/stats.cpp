#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mca::util {

// One Welford update per successful response (digest mean/variance), one
// merge per group per shard fold — both pure register arithmetic.
// mca:hot-path-begin(welford-accumulate)
void running_stats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void running_stats::merge(const running_stats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}
// mca:hot-path-end

void merge_each(std::span<running_stats> dst,
                std::span<const running_stats> src) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument{"merge_each: mismatched lengths"};
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i].merge(src[i]);
}

double running_stats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double running_stats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument{"percentile: empty sample set"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"percentile: q outside [0,1]"};
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

summary summary_of(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument{"summary_of: empty sample set"};
  std::vector<double> sorted{samples.begin(), samples.end()};
  std::sort(sorted.begin(), sorted.end());
  running_stats acc;
  for (double x : sorted) acc.add(x);
  summary s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.median = percentile_sorted(sorted, 0.5);
  s.p5 = percentile_sorted(sorted, 0.05);
  s.p25 = percentile_sorted(sorted, 0.25);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p95 = percentile_sorted(sorted, 0.95);
  return s;
}

double mean_of(std::span<const double> samples) noexcept {
  running_stats acc;
  for (double x : samples) acc.add(x);
  return acc.mean();
}

}  // namespace mca::util
