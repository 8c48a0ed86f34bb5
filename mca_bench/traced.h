// The traced run: the production entry point's public calls, made from
// the bench one at a time and timed from outside.
//
// Each slot is split in two by parking every simulation 1 µs before the
// boundary: advance_to(boundary - 1 µs) is the request path, and the step
// from there across the boundary is the slot-boundary work (predict, edit
// distance, ILP).  No clock is added inside the program.
#pragma once

#include <cstddef>
#include <cstdint>

#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "obs/registry.h"
#include "tasks/task.h"
#include "workloads.h"

namespace mca_bench {

/// Simulated time (ms) between the parking point and each slot boundary.
inline constexpr double kBoundaryParkMs = 0.001;

/// Host seconds of the timed calls, and the exact work counts read
/// from the program's own counters.
struct traced_result {
  double wall_s = 0.0;  ///< the whole traced run
  /// Shard ctor + begin (fleet); config synthesis + ctor + begin (scenario).
  double setup_s = 0.0;
  double advance_s = 0.0;       ///< to 1 µs before each boundary / edge
  double boundary_s = 0.0;      ///< the step across each boundary
  double boundary_max_s = 0.0;  ///< the costliest single boundary step
  double coordinate_s = 0.0;    ///< coordinator ctor + allocate_slot
  double reallocate_s = 0.0;    ///< coordinator::reallocate at fault edges
  double apply_quota_s = 0.0;   ///< shard::apply_quota
  double finish_s = 0.0;        ///< drain + digest + teardown
  double merge_s = 0.0;         ///< digest / registry / timeline merges
  /// Σ over pool rounds of the slowest and of the mean member call.
  double round_max_sum_s = 0.0;
  double round_mean_sum_s = 0.0;

  mca::exp::aggregate_metrics aggregate;
  mca::obs::registry registry;  ///< merged as the production run merges
  std::uint64_t sim_events = 0;  ///< Σ executed events over simulations
  /// Σ accepting instances over (simulation, boundary) pairs, read after
  /// each boundary's provisioning, and the number of such pairs.
  std::uint64_t instances_at_boundary = 0;
  std::uint64_t boundaries = 0;
  /// Σ users in the slot reports' actual counts, and the report count.
  std::uint64_t slot_users = 0;
  std::uint64_t slot_reports = 0;

  /// Σ of every timed call: the share of wall_s the layers account for.
  double attributed_s() const noexcept {
    return setup_s + advance_s + boundary_s + coordinate_s +
           reallocate_s + apply_quota_s + finish_s + merge_s;
  }
};

/// One traced run of `w` (fleet shards advance on `pool`, one timed call
/// per shard; scenario replications run one after another).
traced_result run_traced(const workload& w, const mca::tasks::task_pool& tasks,
                         mca::exp::thread_pool& pool);

}  // namespace mca_bench
