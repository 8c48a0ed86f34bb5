// Sharded fleet simulator — the scale layer between `exp` and `sim`.
//
// run_fleet partitions a scenario's population into K shards, each a
// self-contained single-threaded closed-loop simulation (shard.h), and
// advances them in bulk-synchronous rounds on the experiment runner's
// batch pool: every provisioning slot, all shards advance to the
// boundary in parallel (a barrier — shards never block mid-simulation, so
// the pool can be smaller than the shard count without deadlock), the
// coordinator gathers their demand digests in shard order, solves ONE
// fleet allocation, and scatters per-shard quotas before the next
// round.  Because each shard is a pure function of (spec, index, quota
// sequence) and the coordinator consumes digests in shard order, the
// merged aggregate — folded shard-by-shard through the same
// exp::merge_replications path the replication sweeps use — is
// bit-identical whatever the pool size or shard→thread mapping; the
// fingerprint gates that in test_fleet and in mca_bench's parallel run.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "fleet/coordinator.h"
#include "fleet/shard.h"

namespace mca::fleet {

struct fleet_options {
  /// Shard count; 0 falls back to the spec's fleet_shards (and 1 if that
  /// is unset) — a monolithic run in fleet clothing.
  std::size_t shards = 0;
  /// Tail-exemplar reservoir size per shard (0 = off); the per-window
  /// fleet top-K lands in fleet_result::exemplars.
  std::size_t exemplar_top_k = 4;
  /// Optional span tracer (not owned).  Ring layout: ring k is shard k's,
  /// ring `shards` the coordinator's, rings `shards + 1 + w` the pool
  /// workers' (attached only when the tracer has that many rings).
  /// run_fleet throws std::invalid_argument when the tracer has fewer
  /// than shards + 1 rings.
  obs::tracer* tracer = nullptr;
  /// 1-in-N request-lifecycle span sampling inside each shard's SDN.
  std::size_t trace_sample_every = 1024;
};

/// One completed fleet run.
struct fleet_result {
  /// Per-shard digests folded in shard-index order; fingerprint() is the
  /// thread-mapping-independence witness.
  exp::aggregate_metrics aggregate;
  std::vector<exp::replication_metrics> per_shard;
  std::vector<coordination_record> slots;
  /// Fleet-wide counter registry: shard registries merged in shard-index
  /// order, then the coordinator's, then the pool's scheduling-dependent
  /// deltas — fingerprint() is bit-identical across pool sizes.
  obs::registry observability;
  /// Fleet-wide per-slot windows: shard timelines merged in shard-index
  /// order, then the coordinator's, aligned on slot index — fingerprint()
  /// is bit-identical across pool sizes and trace legs.
  obs::timeline timeline;
  /// The fleet's tail exemplars: per-shard top-K reservoirs concatenated
  /// in shard order and cut back to the top-K slowest per window.
  std::vector<obs::exemplar_record> exemplars;

  std::size_t shard_count = 0;
  std::size_t slot_count = 0;
  std::size_t ilp_solves = 0;

  double wall_seconds = 0.0;
  /// Serial coordination time (gather + fleet ILP + quota scatter): the
  /// synchronization overhead the shards pay per slot.  A tracer times
  /// the ILP and the split as coordinator_solve / quota_split spans.
  double coordination_seconds = 0.0;

  std::uint64_t fingerprint() const noexcept {
    return aggregate.fingerprint();
  }
  double coordination_overhead() const noexcept {
    return wall_seconds > 0.0 ? coordination_seconds / wall_seconds : 0.0;
  }
};

/// The fleet-wide allocation shape of a scenario: candidates per group
/// from the group backends and the fleet account cap
/// (fleet_max_total_instances, falling back to max_total_instances).
core::allocation_request fleet_allocation_shape(const exp::scenario_spec& spec);

/// Runs `spec`'s population sharded `options.shards` ways on `pool`.
/// Throws std::invalid_argument on a malformed spec or more shards than
/// users.
fleet_result run_fleet(const exp::scenario_spec& spec,
                       const fleet_options& options,
                       const tasks::task_pool& task_pool,
                       exp::thread_pool& pool);

}  // namespace mca::fleet
