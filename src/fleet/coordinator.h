// The fleet's provisioning plane: one fleet-wide allocation per slot,
// split into per-shard quotas.
//
// The shard/coordinator contract:
//   * Shards never provision themselves.  At each provisioning-slot
//     boundary every shard emits a demand_digest; the coordinator folds
//     them (shard order, so the result is thread-mapping independent),
//     solves ONE fleet-wide allocation from scratch with core::allocate_ilp
//     and splits the fleet plan back into per-shard quotas.
//   * The split is largest-remainder apportionment per (group, type)
//     against the shards' own predicted demand in that group, ties broken
//     toward the lower shard index: counts sum exactly to the fleet plan
//     and depend only on the digests, never on timing.
//   * A shard whose predictor has no forecast yet receives no quota
//     (nullopt) and keeps its current fleet, exactly like a monolithic
//     run before its first prediction.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/allocator.h"
#include "fleet/demand_digest.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "util/money.h"

namespace mca::ilp {

/// An empty tag: the exact allocator takes no settings.  It stays only
/// because mca_bench/traced.cpp:92 builds the coordinator with
/// `ilp::ilp_options{}`; it goes when the benchmark stops passing it.
struct ilp_options {};

}  // namespace mca::ilp

namespace mca::fleet {

/// Per-slot telemetry of the coordinator (examples/fleet_demo prints it).
struct coordination_record {
  std::size_t slot = 0;
  bool solved = false;  ///< a fleet ILP ran (some shard predicted)
  double fleet_demand = 0.0;       ///< summed predicted load
  std::size_t fleet_instances = 0; ///< instances in the fleet plan
  /// Instances held by non-predicting shards, subtracted from the account
  /// cap before the solve so the fleet total never exceeds it.
  std::size_t reserved_instances = 0;
  util::money cost_per_hour = 0;   ///< fleet plan cost, $0.0001 per hour
  double queue_depth = 0.0;        ///< summed in-flight requests at gather
};

class coordinator {
 public:
  /// `shape` fixes the fleet deployment: candidates per group and the
  /// account-wide instance cap.  Demands arrive per slot via
  /// allocate_slot.  Throws std::invalid_argument on a malformed shape.
  /// The unused tag parameter is there for mca_bench/traced.cpp:92 only.
  explicit coordinator(core::allocation_request shape,
                       ilp::ilp_options = {});

  /// One provisioning slot: fold the digests, solve the fleet ILP with
  /// the account cap reduced by the non-predicting shards' instances,
  /// split into per-shard quotas (digest order).  `plans[k]` is
  /// nullopt when digest k's shard should keep its fleet untouched.
  std::vector<std::optional<core::allocation_plan>> allocate_slot(
      std::span<const demand_digest> digests);

  /// Off-cycle re-aim after a fault collapsed a group's capacity (outage
  /// lifting, mass preemption): re-splits the most recent solved slot's
  /// plan over its remembered digests.  A solve of the same demand and cap
  /// would return that same plan, so none runs.  Returns an empty vector
  /// before the first solved slot (nothing to re-aim yet).
  std::vector<std::optional<core::allocation_plan>> reallocate();

  std::size_t group_count() const noexcept {
    return shape_.candidates_per_group.size();
  }
  const std::vector<coordination_record>& records() const noexcept {
    return records_;
  }
  /// Fleet ILP solves so far: one per solved slot record.  The solve's
  /// wall time is the tracer's coordinator_solve span.
  std::size_t ilp_solves() const noexcept;

  /// Observability: `counters` toggles the coordinator-owned registry
  /// (ilp_solves / ilp_best_effort + slot-round counters; on by default),
  /// `tracer` adds coordinator_solve / quota_split wall spans into
  /// `tracer->ring(ring)` (nullptr: no spans; not owned).
  void set_observability(bool counters, obs::tracer* tracer = nullptr,
                         std::size_t ring = 0) noexcept;
  /// Resilience floor on the quota split (see split_fleet_plan).
  /// fleet_runner turns this on exactly when the scenario's fault program
  /// is active, so a disabled-fault replay splits like the baseline.
  void set_resilient_split(bool on) noexcept { resilient_split_ = on; }
  /// The coordinator's registry: ilp_solves / ilp_best_effort from
  /// allocate_ilp plus fleet_slot_rounds / fleet_quota_splits.
  const obs::registry& observability() const noexcept { return obs_; }

  /// Preallocates a per-slot timeline over the coordinator's registry
  /// (one window per allocate_slot call, closed at the end of the call;
  /// `slot_length_ms` stamps window end times in simulated time).
  /// Requires counters; setup-time only.
  void enable_timeline(std::size_t window_capacity, double slot_length_ms);
  /// The coordinator's per-slot windows (empty unless enabled);
  /// fleet_runner merges this after the shard timelines.
  const obs::timeline& timeline() const noexcept { return timeline_; }

 private:
  core::allocation_request shape_;
  /// The plan and digests of the last solved slot — what reallocate()
  /// re-splits between boundaries.
  core::allocation_plan last_plan_;
  std::vector<demand_digest> last_digests_;
  std::vector<coordination_record> records_;
  std::size_t next_slot_ = 0;
  bool resilient_split_ = false;
  obs::registry obs_;
  obs::registry* obs_ptr_ = nullptr;
  obs::timeline timeline_;
  double slot_length_ms_ = 0.0;
  obs::tracer* tracer_ = nullptr;
  std::size_t trace_ring_ = 0;
};

/// Largest-remainder split of `fleet_plan` into one quota per digest,
/// weighted by each predicting shard's demand in the entry's group (equal
/// split among predicting shards when the group's fleet demand is zero).
/// Per-shard costs come from `shape`'s candidate prices.  Exposed for
/// tests; allocate_slot is the production caller.
///
/// `min_footprint` adds the resilience floor (fault-program runs only):
/// a fleet-optimal plan may put a whole group's capacity on one shard —
/// fine when requests can fail over, but shards route only within
/// themselves, so every other shard's requests in that group would ride
/// the local-fallback path at device speed.  With the floor, a predicting
/// shard with nonzero demand in a group whose split left it no instances
/// there gets one instance of the group's cheapest candidate type on top
/// of its quota.  The floor adds at most (shards x groups) instances over
/// the ILP optimum and keeps the split a pure function of its inputs.
std::vector<std::optional<core::allocation_plan>> split_fleet_plan(
    const core::allocation_plan& fleet_plan,
    std::span<const demand_digest> digests,
    const core::allocation_request& shape, bool min_footprint = false);

}  // namespace mca::fleet
