// Time-resolved telemetry: a preallocated ring of per-provisioning-slot
// windows over an obs::registry.
//
// The registry reports end-of-run totals; the timeline adds the time
// dimension by snapshotting the registry at every slot boundary and
// storing the *delta* since the previous snapshot — counter increments and
// per-group SLO latency histogram bins that landed inside the window.  A
// window keeps its SLO bins in 32 bits, half a util::histogram's bytes; a
// window bin that would reach 2^32 samples throws std::overflow_error
// instead of wrapping.  Recording follows the registry's discipline: every
// buffer is sized once at setup (reset()), snapshot() is allocation-free
// and runs at slot rate, each single-threaded simulation owns its own
// timeline, and owners fold them with merge() in shard-index order — so
// the merged timeline, and the fingerprint over it, is bit-identical
// whatever the pool size.
//
// The fingerprint excludes scheduling-dependent counters (pool telemetry)
// and trace-dependent counters (sdn_sampled_spans only counts while a
// tracer is attached) — so it is also bit-identical between traced and
// untraced legs of the same workload.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/registry.h"
#include "util/histogram.h"

namespace mca::obs {

/// One closed window: everything recorded between two consecutive
/// snapshots.  `slot` is the provisioning-slot index the window covers
/// (the run's drain tail gets index == slot count); `sim_end_ms` is the
/// simulated time the window closed.
struct timeline_window {
  std::uint64_t slot = 0;
  double sim_end_ms = 0.0;
  std::array<std::uint64_t, kCounterCount> counters{};  ///< in-window deltas
  /// Per-group in-window SLO latency counts in util::histogram's bin
  /// layout, group-major: group g's bin b is slo_bins[g * kBins + b].
  std::vector<std::uint32_t> slo_bins;

  std::uint64_t delta(counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Groups with SLO bins in this window.
  std::size_t slo_groups() const noexcept {
    return slo_bins.size() / util::histogram::kBins;
  }
  /// Adds group `group`'s in-window SLO samples to `into`.  Throws
  /// std::out_of_range for a group the window lacks.
  void add_slo(std::size_t group, util::histogram& into) const;
  /// All groups' in-window SLO samples merged (the fleet-wide row).
  util::histogram merged_slo() const;
};

class timeline {
 public:
  /// (Re)allocates `window_capacity` windows, each with `group_count`
  /// SLO histograms, and clears the delta baseline.  Setup-time only; a
  /// capacity of zero disables the timeline (snapshot() becomes a no-op).
  void reset(std::size_t window_capacity, std::size_t group_count);

  bool enabled() const noexcept { return !windows_.empty(); }
  std::size_t group_count() const noexcept { return groups_; }

  /// Closes the window that ends at `sim_end_ms`: stores the counter and
  /// SLO deltas since the previous snapshot.  Oldest windows are
  /// overwritten once the ring wraps.  Allocation-free after reset();
  /// called at slot boundaries only.
  void snapshot(const registry& reg, std::uint64_t slot, double sim_end_ms);

  std::size_t size() const noexcept;
  /// i-th retained window, oldest first.
  const timeline_window& window(std::size_t i) const;

  /// Folds `other` in, aligning windows on their slot index: counters
  /// and SLO bins add (a bin sum of 2^32 or more throws
  /// std::overflow_error), `sim_end_ms` takes the max (shards close slot
  /// k at the same boundary; the drain window closes at the last shard
  /// event).  Windows `other` has and this timeline lacks are inserted in
  /// slot order.  Post-run only — a merged timeline holds exactly its
  /// windows and must not snapshot() again.  Deterministic given a
  /// deterministic fold order: callers merge in shard-index order,
  /// coordinator last.
  void merge(const timeline& other);

  /// FNV-1a over every deterministic per-window value: slot ids, close
  /// times, counter deltas minus the scheduling- and trace-dependent
  /// ones, and SLO bins.
  std::uint64_t fingerprint() const noexcept;

 private:
  std::vector<timeline_window> windows_;  ///< ring while recording
  std::uint64_t pushed_ = 0;
  std::size_t groups_ = 0;
  /// Registry state at the previous snapshot (the delta baseline).
  std::array<std::uint64_t, kCounterCount> prev_counters_{};
  std::vector<util::histogram> prev_slo_;
  util::histogram slo_delta_;  ///< snapshot() scratch: one group's delta
};

}  // namespace mca::obs
