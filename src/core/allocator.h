// Dynamic resource allocation (§IV-C): the cheapest instance mix covering
// the predicted workload.
//
//     min  Σ x_s · c_s
//     s.t. Σ_{s ∈ group n} x_s · K_s  >  W_{a_n}      ∀ groups n    (2)
//          Σ x_s ≤ CC                                               (3)
//
// solved exactly, one independent solve per provisioning slot (the paper
// solves each hour with R's lpSolveAPI).  allocate_ilp is the only solve
// entry point: the monolith's slot boundary and the fleet coordinator both
// build a fresh request per slot and call it.  Constraint (2) is strict and
// per group, as the paper writes it once per group: a group's demand is
// covered by that group's own instances only, so the model is separable
// and only the cap (3) couples the groups.  The solver uses that: per group
// it drops dominated candidates and searches depth first for the group's
// own cheapest cover.  When those covers fit under CC they are the plan;
// only otherwise does each group tabulate its cheapest cover per instance
// count (from the fewest that can cover up to its own cover's) and a DP
// over the cap pick one count per group.  The work grows with each
// group's demand in instance quanta, not with CC.  Besides the exact
// allocator, three baselines are provided for the ablation bench: a
// cost-greedy heuristic, static peak provisioning, and best-effort filling
// for the infeasible case (workload beyond what CC instances can carry).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "util/ids.h"
#include "util/money.h"

namespace mca::core {

/// One allocatable instance type inside a group.
struct allocation_candidate {
  std::string type_name;
  double capacity_per_instance = 0.0;  ///< Ks: users/requests-per-min
  util::money cost_per_hour = 0;       ///< cs, in $0.0001 per hour
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
  util::money total_cost_per_hour = 0;  ///< $0.0001 per hour
  bool feasible = false;
  /// True when the plan is a best-effort fill of an infeasible request.
  bool best_effort = false;

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

/// Exact allocation: the cheapest plan that satisfies (2) and (3).
/// Ties are broken by one rule, applied in order: the fewest instances in
/// total; then the fewest in group 0, then in group 1, and so on; then,
/// within each group, the most instances of its largest-capacity
/// candidate, then of the next largest, and so on (between two candidates
/// of equal capacity and cost, the one listed first).  Costs are whole
/// $0.0001 and compare as integers, so plans of equal cost tie exactly,
/// whatever order their prices were summed in.  When
/// no plan within CC covers every group (or a group with demand has no
/// candidates), falls back to the best-effort fill (flagged in the plan).
/// A non-null `registry` (not owned) counts the call in ilp_solves and a
/// fallback in ilp_best_effort.
allocation_plan allocate_ilp(const allocation_request& request,
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
