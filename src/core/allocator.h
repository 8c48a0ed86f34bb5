// Dynamic resource allocation (§IV-C): the cheapest instance mix covering
// the predicted workload.
//
//     min  Σ x_s · c_s
//     s.t. Σ_{s ∈ group n} x_s · K_s  >  W_{a_n}      ∀ groups n    (2)
//          Σ x_s ≤ CC                                               (3)
//
// solved exactly with the in-repo branch-and-bound ILP solver, one
// independent solve per provisioning slot (the paper solves each hour
// with R's lpSolveAPI).  allocate_ilp is the only solve entry point: the
// monolith's slot boundary and the fleet coordinator both build a fresh
// request per slot and call it.  Constraint (2) is strict and per group,
// as the paper writes it once per group: a group's demand is covered by
// that group's own instances only.  Besides the ILP, three baselines are
// provided for the ablation bench: a cost-greedy heuristic, static peak
// provisioning, and best-effort filling for the infeasible case (workload
// beyond what CC instances can carry).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ilp/branch_bound.h"
#include "obs/registry.h"
#include "util/ids.h"

namespace mca::core {

/// One allocatable instance type inside a group.
struct allocation_candidate {
  std::string type_name;
  double capacity_per_instance = 0.0;  ///< Ks: users/requests-per-min
  double cost_per_hour = 0.0;          ///< cs
};

/// The allocator's input for one provisioning period.
struct allocation_request {
  /// W_{a_n}: predicted workload per group, indexed by group id.
  std::vector<double> workload_per_group;
  /// Allocatable types per group, same indexing.
  std::vector<std::vector<allocation_candidate>> candidates_per_group;
  /// CC: the cloud account's instance cap (Amazon's default is 20).
  std::size_t max_total_instances = 20;
};

/// Chosen instance counts.
struct allocation_plan {
  struct entry {
    group_id group = 0;
    std::string type_name;
    std::size_t count = 0;
  };
  std::vector<entry> entries;
  double total_cost_per_hour = 0.0;
  bool feasible = false;
  /// True when the plan is a best-effort fill of an infeasible request.
  bool best_effort = false;
  ilp::solve_status status = ilp::solve_status::infeasible;

  std::size_t total_instances() const noexcept;
  std::size_t count_of(group_id group, const std::string& type_name) const;
};

/// Validates a request (consistent sizes, positive capacities).
/// Throws std::invalid_argument on malformed input.
void validate(const allocation_request& request);

/// Widens predicted per-group user counts into the allocator's demand
/// vector (the W_{a_n} of constraint (2)): counts become doubles, groups
/// the prediction does not cover get zero.  This is THE derivation of
/// demand from predictor output — the monolithic slot boundary, the fleet
/// shards' demand digests, and the coordinator all share it, so a change
/// here moves every consumer together.
std::vector<double> demand_from_prediction(
    std::span<const std::size_t> predicted_counts, std::size_t group_count);

/// Exact ILP allocation.  When the request is infeasible under CC, falls
/// back to the best-effort fill (flagged in the plan).  If the solver's
/// node budget runs out with a feasible incumbent in hand, that incumbent
/// is used (status `iteration_limit` flags the unproven optimality); the
/// greedy fallback is reserved for truly empty results.  A non-null
/// `registry` (not owned) records the solve: ilp_solves, ilp_bb_nodes,
/// ilp_root_pivots, ilp_best_effort and the ilp_nodes_per_solve series.
allocation_plan allocate_ilp(const allocation_request& request,
                             const ilp::ilp_options& opts = {},
                             obs::registry* registry = nullptr);

/// Greedy baseline: per group, pick the candidate with the best
/// capacity-per-dollar and buy enough of it; spill to the next-best type
/// when the account cap binds.
allocation_plan allocate_greedy(const allocation_request& request);

/// Static peak baseline: provision every group for `peak_workload` users
/// regardless of the prediction (what a deployment without the adaptive
/// model must do to stay safe).
allocation_plan allocate_static_peak(const allocation_request& request,
                                     double peak_workload);

/// Best-effort fill: maximize covered workload under the account cap,
/// then minimize cost among maximal covers (greedy approximation).
allocation_plan allocate_best_effort(const allocation_request& request);

}  // namespace mca::core
