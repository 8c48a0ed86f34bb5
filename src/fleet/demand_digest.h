// Per-shard demand digests — what crosses the shard/coordinator boundary.
//
// At every provisioning-slot boundary each shard reduces its state to this
// small value type: the predicted per-group load its own predictor derived
// from its sub-population's history (via the shared
// core::demand_from_prediction path), its deployed instance count and the
// requests executing on them.  The coordinator folds the digests of one
// slot into the fleet-wide demand the fleet ILP covers.
// Digests carry no pointers into the shard, so gathering them across the
// thread pool is race-free by construction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mca::fleet {

/// One shard's state at one provisioning-slot boundary.
struct demand_digest {
  std::size_t shard = 0;
  std::size_t slot = 0;
  /// False until the shard's predictor has enough history to forecast; the
  /// coordinator leaves such shards' fleets untouched.
  bool has_prediction = false;
  /// Predicted load per group (the allocator's W), empty-group-padded to
  /// the scenario's group count.  All zeros when has_prediction is false.
  std::vector<double> demand_per_group;
  /// Non-draining instances currently deployed on the shard (all groups,
  /// warming ones included): Σ_g backend_pool::instance_count(g).  The
  /// coordinator reserves the non-predicting shards' instances out of the
  /// account cap so the fleet total never exceeds it.
  std::size_t instances = 0;
  /// Requests currently executing on those instances (all groups).
  std::size_t queue_depth = 0;
};

/// The coordinator's fold of one slot's digests: summed demand over the
/// shards that predicted, sized to `group_count`.
struct fleet_demand {
  std::vector<double> demand_per_group;
  std::size_t predicting_shards = 0;

  bool any_prediction() const noexcept { return predicting_shards > 0; }
  double total() const noexcept;
};

/// Folds `digests` (one slot, shard order).  Demands shorter than
/// `group_count` are zero-padded; longer ones are an error in the caller
/// and throw std::invalid_argument.
fleet_demand combine(std::span<const demand_digest> digests,
                     std::size_t group_count);

}  // namespace mca::fleet
