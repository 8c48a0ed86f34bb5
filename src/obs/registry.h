// Deterministic observability registry: preregistered counters, gauges,
// value series, and per-group SLO latency histograms.
//
// Everything a component can record is enumerated here at compile time and
// stored in plain arrays sized at setup — recording is an array increment
// behind one pointer check (components hold an `obs::registry*` that is
// nullptr when observability is off and never changes after construction,
// so the disabled path costs a branch on a constant).  No locks, no
// allocation after setup: each single-threaded simulation (a fleet shard,
// a monolithic run) owns its own registry, and owners fold them with
// merge() in shard-index order, exactly like the metric digests — so the
// merged totals, and the fingerprint over them, are bit-identical whatever
// the pool size or shard→thread mapping.
//
// Counters fed by the thread pool itself (indices run, idle waits) are
// inherently scheduling-dependent; they merge and report normally but are
// excluded from fingerprint() so the determinism gate stays meaningful.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/histogram.h"
#include "util/ids.h"

namespace mca::obs {

/// Every monotonic counter in the system, grouped by subsystem.  Readers
/// address counters by value (get(counter)); none is printed by name.
enum class counter : std::uint32_t {
  // --- SDN front-end request pipeline ---
  sdn_requests,       ///< requests entering sdn_accelerator::submit
  sdn_successes,      ///< responses delivered with success
  sdn_failures,       ///< responses delivered as failure notices
  sdn_sampled_spans,  ///< 1-in-N requests traced end to end
  // --- processor-sharing backend (cloud::instance) ---
  ps_submits,            ///< jobs accepted into an instance
  ps_drops,              ///< jobs rejected (admission cap / draining)
  ps_completions,        ///< jobs finished
  ps_completion_events,  ///< completion events fired (batches)
  ps_spurious_wakes,     ///< events that found nothing due and re-armed
  ps_vclock_resets,      ///< virtual-clock resets at idle (busy periods)
  // --- ILP allocation (core::allocate_ilp) ---
  ilp_solves,            ///< allocate_ilp calls (fleet or monolith slot)
  ilp_bb_nodes,          ///< branch & bound nodes explored
  ilp_root_pivots,       ///< simplex pivots of the root relaxations
  ilp_best_effort,       ///< solves that fell back to the best-effort fill
  // --- fleet coordination ---
  fleet_slot_rounds,    ///< bulk-synchronous slot rounds coordinated
  fleet_quota_splits,   ///< fleet plans split into per-shard quotas
  slot_boundaries,      ///< provisioning-slot boundaries observed
  // --- time-resolved telemetry (obs::timeline / obs::exemplar) ---
  timeline_snapshots,   ///< per-slot windows closed into a timeline
  exemplar_admitted,    ///< responses admitted to a tail top-K reservoir
  // --- fault injection & resilience (src/fault + the retry path) ---
  fault_preemptions,      ///< spot preemption events applied
  fault_inflight_killed,  ///< in-flight jobs killed by preemption/drain
  fault_outages,          ///< outage windows opened (group drained)
  fault_recoveries,       ///< outage ends that restored a group's plan
  fault_cold_starts,      ///< launches that paid a cold-start delay
  sdn_timeouts,           ///< per-request timeout timers that fired
  sdn_retries,            ///< re-dispatch attempts after backoff
  sdn_local_fallbacks,    ///< requests served on-device after exhaustion
  // --- thread pool (scheduling-dependent: reported, never
  //     fingerprinted) ---
  pool_tasks_executed,
  pool_idle_waits,
  count  ///< sentinel
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(counter::count);

/// True for counters whose value depends on the shard→thread mapping
/// (pool telemetry).  Excluded from fingerprint().
bool counter_is_scheduling_dependent(counter c) noexcept;

/// True for counters whose value depends on whether a span tracer is
/// attached (1-in-N lifecycle sampling only counts while tracing).  They
/// merge, report, and registry-fingerprint normally — the bench only
/// compares registry fingerprints across untraced legs — but the
/// timeline fingerprint excludes them so traced and untraced legs of the
/// same workload produce bit-identical timelines.
bool counter_is_trace_dependent(counter c) noexcept;

/// Point-in-time values; merge takes the max (gauges describe the run's
/// configuration/high-water marks, not flows).  Never fingerprinted —
/// pool_workers legitimately differs across --jobs legs.
enum class gauge : std::uint32_t {
  pool_workers,
  fleet_shards,
  groups,
  trace_spans_dropped,  ///< ring-buffer overwrites during tracing
  timeline_windows,     ///< retained per-slot windows after the merge
  count
};

inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(gauge::count);

/// Distribution-valued observations (queue depths, batch sizes): each
/// series keeps count/sum/max plus a util::histogram (each integer from 1
/// to 63 gets a bin of its own), all preallocated.
enum class series : std::uint32_t {
  ps_queue_depth,      ///< instance queue depth at submit
  ps_event_batch,      ///< completions drained per event
  ilp_nodes_per_solve, ///< branch & bound nodes per ILP solve
  count
};

inline constexpr std::size_t kSeriesCount =
    static_cast<std::size_t>(series::count);

struct series_stats {
  std::uint64_t samples = 0;
  double sum = 0.0;
  double max = 0.0;
  util::histogram histo;

  double mean() const noexcept {
    return samples == 0 ? 0.0 : sum / static_cast<double>(samples);
  }
};

class registry {
 public:
  /// (Re)allocates the per-group SLO histograms; setup-time only.  Growing
  /// keeps existing samples, shrinking is ignored.
  void resize_groups(std::size_t group_count);
  std::size_t group_count() const noexcept { return slo_.size(); }

  // Recording sites: called from inside every other hot-path region
  // (request pipeline, PS event math, shard advance), so they are one
  // themselves — a null check plus an array increment, nothing else.
  // mca:hot-path-begin(obs-recording)
  void add(counter c, std::uint64_t n = 1) noexcept {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  std::uint64_t get(counter c) const noexcept {
    return counters_[static_cast<std::size_t>(c)];
  }

  void set_gauge(gauge g, std::uint64_t v) noexcept {
    gauges_[static_cast<std::size_t>(g)] = v;
  }
  std::uint64_t get_gauge(gauge g) const noexcept {
    return gauges_[static_cast<std::size_t>(g)];
  }

  void observe(series s, double v) noexcept {
    series_stats& st = series_[static_cast<std::size_t>(s)];
    ++st.samples;
    st.sum += v;
    if (v > st.max) st.max = v;
    st.histo.add(v);
  }
  const series_stats& stats(series s) const noexcept {
    return series_[static_cast<std::size_t>(s)];
  }

  /// Feeds one successful response into its group's SLO histogram.
  /// Out-of-range groups are dropped (groups are fixed at setup; the hot
  /// path never grows the vector).
  void observe_response(group_id group, double response_ms) noexcept {
    if (group < slo_.size()) slo_[group].add(response_ms);
  }
  // mca:hot-path-end
  const util::histogram& group_slo(std::size_t group) const {
    return slo_.at(group);
  }
  /// All groups' SLO samples merged (the fleet-wide row).
  util::histogram fleet_slo() const;

  /// Folds `other` in: counters and series add, gauges take the max,
  /// SLO histograms merge bin-wise (growing the group dimension when
  /// `other` has more groups).  Deterministic given a deterministic fold
  /// order — callers merge in shard-index order.
  void merge(const registry& other);

  /// FNV-1a over every deterministic value (counters minus the
  /// scheduling-dependent ones, series, SLO bins).  Bit-identical across
  /// thread counts for deterministic workloads; gauges are excluded.
  std::uint64_t fingerprint() const noexcept;

 private:
  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<std::uint64_t, kGaugeCount> gauges_{};
  std::array<series_stats, kSeriesCount> series_{};
  std::vector<util::histogram> slo_;  ///< per group
};

}  // namespace mca::obs
