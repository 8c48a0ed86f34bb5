#include "obs/registry.h"

#include "obs/fnv.h"

namespace mca::obs {
namespace {

constexpr const char* kCounterNames[kCounterCount] = {
    "sdn_requests",
    "sdn_successes",
    "sdn_failures",
    "sdn_sampled_spans",
    "ps_submits",
    "ps_drops",
    "ps_completions",
    "ps_completion_events",
    "ps_spurious_wakes",
    "ps_vclock_resets",
    "ilp_solves",
    "ilp_warm_solves",
    "ilp_root_builds",
    "ilp_rhs_reaims",
    "ilp_bb_nodes",
    "ilp_root_pivots",
    "ilp_incumbent_seeds",
    "ilp_best_effort",
    "fleet_slot_rounds",
    "fleet_quota_splits",
    "slot_boundaries",
    "timeline_snapshots",
    "exemplar_admitted",
    "fault_preemptions",
    "fault_inflight_killed",
    "fault_outages",
    "fault_recoveries",
    "fault_cold_starts",
    "sdn_timeouts",
    "sdn_retries",
    "sdn_local_fallbacks",
    "pool_tasks_executed",
    "pool_idle_waits",
};

constexpr const char* kGaugeNames[kGaugeCount] = {
    "pool_workers",
    "fleet_shards",
    "groups",
    "trace_spans_dropped",
    "timeline_windows",
};

constexpr const char* kSeriesNames[kSeriesCount] = {
    "ps_queue_depth",
    "ps_event_batch",
    "ilp_nodes_per_solve",
};

}  // namespace

const char* counter_name(counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

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

const char* gauge_name(gauge g) noexcept {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

const char* series_name(series s) noexcept {
  return kSeriesNames[static_cast<std::size_t>(s)];
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
