// One fleet shard: a self-contained closed-loop simulation over a slice of
// the population, provisioned from outside.
//
// A shard wraps one core::offloading_system with its adaptation off: its
// slot boundaries forecast but never solve, so the coordinator's quota is
// its only provisioning.  The arena event engine underneath stays
// single-threaded and untouched, the shard's devices / moderator / SDN
// front-end / backend pool are all private to it, and the only things
// that cross its boundary are the demand digest it emits at each
// provisioning-slot boundary and the instance quota the coordinator hands
// back.  A shard is a pure function
// of (scenario spec, shard index, shard count, quota sequence): it draws
// all randomness from rng::split(spec.base_seed, index), and study-session
// gaps from the spec's one study (keyed off base_seed, the same for every
// shard and for the monolith, and built once per fleet run), so fleet
// results cannot depend on which pool thread happens to advance which
// shard.
#pragma once

#include <cstddef>
#include <optional>

#include "core/system.h"
#include "exp/scenario.h"
#include "fleet/demand_digest.h"
#include "tasks/task.h"

namespace mca::fleet {

/// The population slice of shard `index` among `shard_count` shards:
/// user_count / shard_count users, the first user_count % shard_count
/// shards carrying one extra.
std::size_t shard_user_count(std::size_t user_count, std::size_t index,
                             std::size_t shard_count);

/// Observability wiring handed to one shard at construction.  The counter
/// registry and per-slot timeline are always on and deterministic per
/// shard; spans go to `tracer->ring(ring)`
/// (written only by whichever pool thread advances this shard — the
/// bulk-synchronous rounds order the writes).
struct shard_obs {
  std::size_t exemplar_top_k = 4;  ///< tail reservoir size (0 = off)
  obs::tracer* tracer = nullptr;   ///< not owned; nullptr = no spans
  std::size_t ring = 0;            ///< this shard's span ring
  std::size_t sample_every = 1024; ///< request-lifecycle sampling period
};

class shard {
 public:
  /// Builds shard `index` of `shard_count` over its population slice,
  /// synthesizing the spec's study itself.
  /// Throws std::invalid_argument on a malformed spec, a zero shard count,
  /// an index out of range, or a slice with zero users (more shards than
  /// users).
  shard(const exp::scenario_spec& spec, const tasks::task_pool& pool,
        std::size_t index, std::size_t shard_count, shard_obs obs = {});
  /// The same over an already built study, which must be
  /// exp::make_study(spec): run_fleet builds it once and every shard reads
  /// it.  The shard is the one the constructor above builds.
  shard(const exp::scenario_spec& spec, const tasks::task_pool& pool,
        std::size_t index, std::size_t shard_count, shard_obs obs,
        exp::shared_study study);

  /// Installs the workload; must be called once before the first advance.
  void begin();

  /// Runs the shard's event loop to the end of slot `slot_index` (the
  /// boundary at (slot_index + 1) * slot_length) and digests its demand
  /// state for the coordinator.
  demand_digest advance_to_slot(std::size_t slot_index);

  /// Runs the shard's event loop to an arbitrary time inside the current
  /// slot — fleet_runner uses this to park every shard at a fault edge
  /// (outage end) before the coordinator's off-cycle re-aim.
  void advance_to(util::time_ms t);

  /// Applies this shard's slice of the fleet plan (launch/retire on the
  /// shard's own backend pool, recorded in its slot report).
  void apply_quota(const core::allocation_plan& quota);

  /// Drains in-flight requests past the horizon and digests the shard's
  /// full run for the deterministic fleet merge.
  exp::replication_metrics finish();

  /// The shard system's counter registry; fleet_runner merges these in
  /// shard order.
  const obs::registry& observability() const noexcept {
    return system_->observability();
  }
  /// The shard's per-slot telemetry windows; fleet_runner merges these in
  /// shard order before the coordinator's.
  const obs::timeline& timeline() const noexcept {
    return system_->timeline();
  }
  /// The shard's flushed tail exemplars.
  const obs::exemplar_reservoir& exemplars() const noexcept {
    return system_->exemplars();
  }
  core::offloading_system& system() noexcept { return *system_; }

 private:
  exp::scenario_spec spec_;  ///< population slice applied
  std::size_t index_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t group_count_ = 0;
  std::optional<core::offloading_system> system_;
  /// Next boundary, accumulated with the same `previous + slot_length`
  /// arithmetic the slot ticker rearms with: a multiplied-out
  /// (k+1)*slot_length can land an ULP before the ticker's accumulated
  /// fire time when slot_length is not exactly representable, and
  /// run_until would then skip the boundary event entirely.
  util::time_ms next_boundary_ = 0.0;
};

}  // namespace mca::fleet
