#include "obs/registry.h"

#include "obs/fnv.h"

namespace mca::obs {

bool counter_is_scheduling_dependent(counter c) noexcept {
  switch (c) {
    case counter::pool_tasks_executed:
    case counter::pool_idle_waits:
      return true;
    default:
      return false;
  }
}

bool counter_is_trace_dependent(counter c) noexcept {
  return c == counter::sdn_sampled_spans;
}

void registry::resize_groups(std::size_t group_count) {
  if (slo_.size() < group_count) slo_.resize(group_count);
}

util::histogram registry::fleet_slo() const {
  util::histogram fleet;
  for (const auto& group : slo_) fleet.merge(group);
  return fleet;
}

void registry::merge(const registry& other) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters_[i] += other.counters_[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    if (other.gauges_[i] > gauges_[i]) gauges_[i] = other.gauges_[i];
  }
  for (std::size_t i = 0; i < kSeriesCount; ++i) {
    series_stats& mine = series_[i];
    const series_stats& theirs = other.series_[i];
    mine.samples += theirs.samples;
    mine.sum += theirs.sum;
    if (theirs.max > mine.max) mine.max = theirs.max;
    mine.histo.merge(theirs.histo);
  }
  resize_groups(other.slo_.size());
  for (std::size_t g = 0; g < other.slo_.size(); ++g) {
    slo_[g].merge(other.slo_[g]);
  }
}

std::uint64_t registry::fingerprint() const noexcept {
  fnv_state fnv;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counter_is_scheduling_dependent(static_cast<counter>(i))) continue;
    fnv.word(counters_[i]);
  }
  for (const series_stats& st : series_) {
    fnv.word(st.samples);
    fnv.real(st.sum);
    fnv.real(st.max);
    for (std::size_t b = 0; b < st.histo.bin_count(); ++b) {
      fnv.word(st.histo.count_in_bin(b));
    }
  }
  fnv.word(slo_.size());
  for (const util::histogram& h : slo_) {
    fnv.word(h.total());
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      fnv.word(h.count_in_bin(b));
    }
  }
  return fnv.hash;
}

}  // namespace mca::obs
