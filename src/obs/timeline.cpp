#include "obs/timeline.h"

#include <algorithm>
#include <stdexcept>

#include "obs/fnv.h"

namespace mca::obs {
namespace {

constexpr std::size_t kBins = util::histogram::kBins;
constexpr std::uint64_t kMaxWindowCount = 0xffffffffu;

/// Cold path of the 32-bit window bins' range check.
[[noreturn]] void reject_window_count() {
  throw std::overflow_error{"timeline: a window SLO bin reached 2^32 samples"};
}

}  // namespace

void timeline_window::add_slo(std::size_t group, util::histogram& into) const {
  if (group >= slo_groups()) throw std::out_of_range{"timeline: SLO group"};
  const std::uint32_t* bins = slo_bins.data() + group * kBins;
  for (std::size_t b = 0; b < kBins; ++b) {
    if (bins[b] != 0) into.add_to_bin(b, bins[b]);
  }
}

util::histogram timeline_window::merged_slo() const {
  util::histogram merged;
  for (std::size_t g = 0; g < slo_groups(); ++g) add_slo(g, merged);
  return merged;
}

void timeline::reset(std::size_t window_capacity, std::size_t group_count) {
  groups_ = group_count;
  windows_.clear();
  windows_.reserve(window_capacity);
  for (std::size_t i = 0; i < window_capacity; ++i) {
    timeline_window w;
    w.slo_bins.assign(group_count * kBins, 0);
    windows_.push_back(std::move(w));
  }
  prev_slo_.assign(group_count, util::histogram{});
  prev_counters_ = {};
  pushed_ = 0;
}

// Slot-rate, but shares the hot-path discipline of the registry it reads:
// plain array arithmetic over preallocated storage, nothing else.
// mca:hot-path-begin(obs-timeline-snapshot)
void timeline::snapshot(const registry& reg, std::uint64_t slot,
                        double sim_end_ms) {
  if (windows_.empty()) return;
  timeline_window& w = windows_[pushed_ % windows_.size()];
  w.slot = slot;
  w.sim_end_ms = sim_end_ms;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::uint64_t cur = reg.get(static_cast<counter>(i));
    w.counters[i] = cur - prev_counters_[i];
    prev_counters_[i] = cur;
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    w.gauges[i] = reg.get_gauge(static_cast<gauge>(i));
  }
  const std::size_t groups = std::min(groups_, reg.group_count());
  for (std::size_t g = 0; g < groups; ++g) {
    // delta = cumulative - baseline, then baseline += delta == cumulative:
    // both steps are bin-wise integer math on same-layout histograms.
    slo_delta_.assign_difference(reg.group_slo(g), prev_slo_[g]);
    prev_slo_[g].merge(slo_delta_);
    std::uint32_t* bins = w.slo_bins.data() + g * kBins;
    for (std::size_t b = 0; b < kBins; ++b) {
      const std::size_t count = slo_delta_.count_in_bin(b);
      if (count > kMaxWindowCount) [[unlikely]] reject_window_count();
      bins[b] = static_cast<std::uint32_t>(count);
    }
  }
  ++pushed_;
}
// mca:hot-path-end

std::size_t timeline::size() const noexcept {
  return windows_.empty()
             ? 0
             : static_cast<std::size_t>(std::min<std::uint64_t>(
                   pushed_, static_cast<std::uint64_t>(windows_.size())));
}

const timeline_window& timeline::window(std::size_t i) const {
  const std::size_t retained = size();
  // Oldest-first: once the ring wraps, the oldest retained window sits at
  // pushed_ % capacity.
  const std::size_t base =
      pushed_ > retained ? static_cast<std::size_t>(pushed_ % windows_.size())
                         : 0;
  return windows_.at((base + i) % windows_.size());
}

void timeline::merge(const timeline& other) {
  // Collapse both ring representations into one slot-ordered store.  This
  // grows (post-run allocation is fine); the result indexes linearly, so
  // window(i) keeps working with pushed_ == size().
  std::vector<timeline_window> merged;
  merged.reserve(size() + other.size());
  for (std::size_t i = 0; i < size(); ++i) merged.push_back(window(i));
  for (std::size_t i = 0; i < other.size(); ++i) {
    const timeline_window& theirs = other.window(i);
    auto pos = std::lower_bound(
        merged.begin(), merged.end(), theirs.slot,
        [](const timeline_window& w, std::uint64_t slot) {
          return w.slot < slot;
        });
    if (pos == merged.end() || pos->slot != theirs.slot) {
      merged.insert(pos, theirs);
      continue;
    }
    timeline_window& mine = *pos;
    if (theirs.sim_end_ms > mine.sim_end_ms) mine.sim_end_ms = theirs.sim_end_ms;
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      mine.counters[c] += theirs.counters[c];
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      if (theirs.gauges[g] > mine.gauges[g]) mine.gauges[g] = theirs.gauges[g];
    }
    if (mine.slo_bins.size() < theirs.slo_bins.size()) {
      mine.slo_bins.resize(theirs.slo_bins.size(), 0);
    }
    for (std::size_t b = 0; b < theirs.slo_bins.size(); ++b) {
      const std::uint64_t sum =
          std::uint64_t{mine.slo_bins[b]} + theirs.slo_bins[b];
      if (sum > kMaxWindowCount) reject_window_count();
      mine.slo_bins[b] = static_cast<std::uint32_t>(sum);
    }
  }
  windows_ = std::move(merged);
  pushed_ = static_cast<std::uint64_t>(windows_.size());
  groups_ = std::max(groups_, other.groups_);
}

std::uint64_t timeline::fingerprint() const noexcept {
  fnv_state fnv;
  fnv.word(static_cast<std::uint64_t>(size()));
  for (std::size_t i = 0; i < size(); ++i) {
    const timeline_window& w = window(i);
    fnv.word(w.slot);
    fnv.real(w.sim_end_ms);
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const auto which = static_cast<counter>(c);
      if (counter_is_scheduling_dependent(which)) continue;
      if (counter_is_trace_dependent(which)) continue;
      fnv.word(w.counters[c]);
    }
    // Per group: the sample total, then every bin, as the words a
    // util::histogram of the same counts hashes to.
    fnv.word(static_cast<std::uint64_t>(w.slo_groups()));
    for (std::size_t g = 0; g < w.slo_groups(); ++g) {
      const std::uint32_t* bins = w.slo_bins.data() + g * kBins;
      std::uint64_t total = 0;
      for (std::size_t b = 0; b < kBins; ++b) total += bins[b];
      fnv.word(total);
      for (std::size_t b = 0; b < kBins; ++b) fnv.word(bins[b]);
    }
  }
  return fnv.hash;
}

}  // namespace mca::obs
