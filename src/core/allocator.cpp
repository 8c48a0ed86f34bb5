#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mca::core {
namespace {

/// Strict-inequality margin of constraint (2): bought capacity must be at
/// least W + margin.  Workloads are integer user counts, so a margin of 1
/// is exactly the paper's strict ">": a group with W=0 still gets one
/// instance and capacity exactly equal to W is not enough.
constexpr double kCapacityMargin = 1.0;

/// Flattened variable: one ILP column per (group, candidate).
struct column {
  group_id group = 0;
  std::size_t candidate = 0;
};

/// Column layout shared by every allocation strategy: the flat column list
/// plus a per-group index so group-local work never scans all columns.
struct column_layout {
  std::vector<column> columns;
  std::vector<std::vector<std::size_t>> by_group;
};

column_layout flatten(const allocation_request& request) {
  column_layout layout;
  const std::size_t group_count = request.candidates_per_group.size();
  layout.by_group.resize(group_count);
  std::size_t total = 0;
  for (const auto& group : request.candidates_per_group) total += group.size();
  layout.columns.reserve(total);
  for (group_id g = 0; g < group_count; ++g) {
    const std::size_t candidates = request.candidates_per_group[g].size();
    layout.by_group[g].reserve(candidates);
    for (std::size_t c = 0; c < candidates; ++c) {
      layout.by_group[g].push_back(layout.columns.size());
      layout.columns.push_back({g, c});
    }
  }
  return layout;
}

const allocation_candidate& candidate_of(const allocation_request& request,
                                         const column_layout& layout,
                                         std::size_t col) {
  const column& c = layout.columns[col];
  return request.candidates_per_group[c.group][c.candidate];
}

/// Capacity-per-dollar figure of merit (free capacity counts as
/// infinitely good).
double value_density(const allocation_candidate& cand) {
  return cand.cost_per_hour <= 0.0
             ? 1e18
             : cand.capacity_per_instance / cand.cost_per_hour;
}

allocation_plan plan_from_counts(const allocation_request& request,
                                 const column_layout& layout,
                                 const std::vector<std::size_t>& counts) {
  allocation_plan plan;
  for (std::size_t i = 0; i < layout.columns.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto& cand = candidate_of(request, layout, i);
    plan.entries.push_back({layout.columns[i].group, cand.type_name, counts[i]});
    plan.total_cost_per_hour +=
        cand.cost_per_hour * static_cast<double>(counts[i]);
  }
  return plan;
}

/// Capacity bought for a group by a counts vector.
double group_capacity(const allocation_request& request,
                      const column_layout& layout,
                      const std::vector<std::size_t>& counts, group_id g) {
  double capacity = 0.0;
  for (const std::size_t i : layout.by_group[g]) {
    capacity += candidate_of(request, layout, i).capacity_per_instance *
                static_cast<double>(counts[i]);
  }
  return capacity;
}

/// The ILP model of one request: columns per candidate, per group a
/// workload row (plus a cardinality cut where it binds), the account-cap
/// row last.
///
/// The cardinality cut — sum of the row's instance counts >= ceil((demand
/// + margin) / K_max) — is implied by the workload row plus integrality,
/// so it never changes the optimum; what it changes is the LP bound.  A
/// group whose demand sits far below one instance's capacity (the margin
/// instance of an idle group, say) otherwise contributes demand/K of its
/// cost to the relaxation but a whole instance to any integer solution,
/// and branch & bound flounders in that gap for thousands of nodes (the
/// "groups off the capacity quantum" blowup): the cut closes it at the
/// root.
ilp::problem build_model(const allocation_request& request,
                         const column_layout& layout) {
  ilp::problem model;
  for (const auto& col : layout.columns) {
    const auto& cand = request.candidates_per_group[col.group][col.candidate];
    model.add_integer_variable(
        cand.cost_per_hour, 0.0,
        static_cast<double>(request.max_total_instances),
        cand.type_name + "@g" + std::to_string(col.group));
  }

  const std::size_t group_count = request.candidates_per_group.size();
  for (group_id g = 0; g < group_count; ++g) {
    std::vector<ilp::linear_term> terms;
    for (const std::size_t i : layout.by_group[g]) {
      terms.push_back(
          {i, candidate_of(request, layout, i).capacity_per_instance});
    }
    if (terms.empty()) continue;
    std::vector<ilp::linear_term> count_terms;
    count_terms.reserve(terms.size());
    double max_capacity = 0.0;
    double best_value_capacity = 0.0;
    double best_value = -1.0;
    for (const auto& term : terms) {
      max_capacity = std::max(max_capacity, term.coeff);
      count_terms.push_back({term.var, 1.0});
      const double value = value_density(candidate_of(request, layout, term.var));
      if (value > best_value) {
        best_value = value;
        best_value_capacity = term.coeff;
      }
    }
    const double rhs = request.workload_per_group[g] + kCapacityMargin;
    model.add_constraint(std::move(terms), ilp::relation::greater_equal, rhs,
                         "workload_g" + std::to_string(g));
    // The relaxation buys ~rhs / K* instances of the best capacity-per-
    // dollar candidate (capacity K*), so the cut binds only when that
    // falls short of the integer minimum; groups whose demand dwarfs a
    // single instance would get a dead row that only slows every pivot.
    const double min_count = std::ceil(rhs / max_capacity - 1e-9);
    if (rhs / best_value_capacity < min_count - 1e-9) {
      model.add_constraint(std::move(count_terms),
                           ilp::relation::greater_equal, min_count,
                           "min_count_g" + std::to_string(g));
    }
  }

  std::vector<ilp::linear_term> cap_terms;
  cap_terms.reserve(layout.columns.size());
  for (std::size_t i = 0; i < layout.columns.size(); ++i) {
    cap_terms.push_back({i, 1.0});
  }
  model.add_constraint(std::move(cap_terms), ilp::relation::less_equal,
                       static_cast<double>(request.max_total_instances),
                       "account_cap");
  return model;
}

/// True when some group's demand has no candidates to cover it — the
/// structurally infeasible case that short-circuits to best effort.
bool uncoverable_demand(const allocation_request& request) {
  for (group_id g = 0; g < request.candidates_per_group.size(); ++g) {
    if (request.candidates_per_group[g].empty() &&
        request.workload_per_group[g] > 0.0) {
      return true;
    }
  }
  return false;
}

/// Rounds solver values into instance counts and assembles the plan.  A
/// tolerance-level negative relaxation value must clamp at zero: fed
/// straight through llround into the unsigned count it would wrap to a
/// huge allocation.
allocation_plan plan_from_values(const allocation_request& request,
                                 const column_layout& layout,
                                 const std::vector<double>& values,
                                 ilp::solve_status status) {
  std::vector<std::size_t> counts(layout.columns.size(), 0);
  for (std::size_t i = 0; i < layout.columns.size(); ++i) {
    counts[i] =
        static_cast<std::size_t>(std::llround(std::max(0.0, values[i])));
  }
  allocation_plan plan = plan_from_counts(request, layout, counts);
  plan.feasible = true;
  plan.status = status;
  return plan;
}

}  // namespace

std::size_t allocation_plan::total_instances() const noexcept {
  std::size_t total = 0;
  for (const auto& e : entries) total += e.count;
  return total;
}

std::size_t allocation_plan::count_of(group_id group,
                                      const std::string& type_name) const {
  for (const auto& e : entries) {
    if (e.group == group && e.type_name == type_name) return e.count;
  }
  return 0;
}

void validate(const allocation_request& request) {
  if (request.workload_per_group.size() !=
      request.candidates_per_group.size()) {
    throw std::invalid_argument{
        "allocation_request: workload/candidate group counts differ"};
  }
  if (request.workload_per_group.empty()) {
    throw std::invalid_argument{"allocation_request: no groups"};
  }
  if (request.max_total_instances == 0) {
    throw std::invalid_argument{"allocation_request: zero instance cap"};
  }
  for (const auto& group : request.candidates_per_group) {
    for (const auto& cand : group) {
      if (cand.capacity_per_instance <= 0.0) {
        throw std::invalid_argument{
            "allocation_request: non-positive candidate capacity"};
      }
      if (cand.cost_per_hour < 0.0) {
        throw std::invalid_argument{
            "allocation_request: negative candidate cost"};
      }
    }
  }
  for (double w : request.workload_per_group) {
    if (w < 0.0) {
      throw std::invalid_argument{"allocation_request: negative workload"};
    }
  }
}

allocation_plan allocate_ilp(const allocation_request& request,
                             const ilp::ilp_options& opts,
                             obs::registry* registry) {
  validate(request);
  const column_layout layout = flatten(request);
  if (layout.columns.empty()) {
    throw std::invalid_argument{"allocate_ilp: no candidates at all"};
  }
  if (registry) registry->add(obs::counter::ilp_solves);

  ilp::solve_status status = ilp::solve_status::infeasible;
  if (!uncoverable_demand(request)) {
    const ilp::solution solved =
        ilp::solve_ilp(build_model(request, layout), opts);
    if (registry) {
      registry->add(obs::counter::ilp_bb_nodes, solved.iterations);
      registry->observe(obs::series::ilp_nodes_per_solve,
                        static_cast<double>(solved.iterations));
      registry->add(obs::counter::ilp_root_pivots, solved.root_pivots);
    }
    // An exhausted node budget still returns the best incumbent found — a
    // feasible integral plan, usually better than the greedy fill.  Only a
    // truly empty result (infeasible, unbounded, or a budget too small to
    // find any incumbent) falls back to best effort.
    if (solved.status == ilp::solve_status::optimal ||
        (solved.status == ilp::solve_status::iteration_limit &&
         !solved.values.empty())) {
      return plan_from_values(request, layout, solved.values, solved.status);
    }
    status = solved.status;
  }
  // Demand with no candidates is structurally infeasible; so is a model
  // the solver found no integral point for.
  if (registry) registry->add(obs::counter::ilp_best_effort);
  allocation_plan plan = allocate_best_effort(request);
  plan.status = status;
  return plan;
}

std::vector<double> demand_from_prediction(
    std::span<const std::size_t> predicted_counts, std::size_t group_count) {
  std::vector<double> demand(group_count, 0.0);
  for (std::size_t g = 0; g < group_count && g < predicted_counts.size();
       ++g) {
    demand[g] = static_cast<double>(predicted_counts[g]);
  }
  return demand;
}

allocation_plan allocate_greedy(const allocation_request& request) {
  validate(request);
  const column_layout layout = flatten(request);
  std::vector<std::size_t> counts(layout.columns.size(), 0);
  std::size_t budget = request.max_total_instances;
  bool feasible = true;

  const std::size_t group_count = request.workload_per_group.size();
  for (group_id g = 0; g < group_count; ++g) {
    const double demand = request.workload_per_group[g] + kCapacityMargin;
    double covered = 0.0;
    // Candidate order: best capacity-per-dollar first.
    std::vector<std::size_t> group_columns = layout.by_group[g];
    std::sort(group_columns.begin(), group_columns.end(),
              [&](std::size_t a, std::size_t b) {
                return value_density(candidate_of(request, layout, a)) >
                       value_density(candidate_of(request, layout, b));
              });
    for (const std::size_t i : group_columns) {
      const auto& cand = candidate_of(request, layout, i);
      while (covered < demand && budget > 0) {
        ++counts[i];
        --budget;
        covered += cand.capacity_per_instance;
      }
      // Stop scanning once the demand is met or the account cap is spent;
      // with no budget left the remaining candidates cannot contribute.
      if (covered >= demand || budget == 0) break;
    }
    if (covered < demand) feasible = false;
  }
  allocation_plan plan = plan_from_counts(request, layout, counts);
  plan.feasible = feasible;
  plan.best_effort = !feasible;
  plan.status =
      feasible ? ilp::solve_status::optimal : ilp::solve_status::infeasible;
  return plan;
}

allocation_plan allocate_static_peak(const allocation_request& request,
                                     double peak_workload) {
  if (peak_workload < 0.0) {
    throw std::invalid_argument{"allocate_static_peak: negative peak"};
  }
  allocation_request peaked = request;
  for (auto& w : peaked.workload_per_group) w = peak_workload;
  return allocate_greedy(peaked);
}

allocation_plan allocate_best_effort(const allocation_request& request) {
  validate(request);
  const column_layout layout = flatten(request);
  std::vector<std::size_t> counts(layout.columns.size(), 0);
  std::size_t budget = request.max_total_instances;

  // Each group's best capacity-per-dollar candidate never changes, so
  // resolve it once instead of rescanning every purchase iteration.
  const std::size_t group_count = request.workload_per_group.size();
  std::vector<std::size_t> best_column(group_count, layout.columns.size());
  for (group_id g = 0; g < group_count; ++g) {
    double best_value = -1.0;
    for (const std::size_t i : layout.by_group[g]) {
      const double value = value_density(candidate_of(request, layout, i));
      if (value > best_value) {
        best_value = value;
        best_column[g] = i;
      }
    }
  }

  // Round-robin over groups by remaining uncovered demand, always buying
  // the group's best capacity-per-dollar candidate, until the cap is spent
  // or everything is covered.
  std::vector<double> covered(group_count, 0.0);
  while (budget > 0) {
    group_id worst = group_count;
    double worst_gap = 0.0;
    for (group_id g = 0; g < group_count; ++g) {
      const double gap =
          request.workload_per_group[g] + kCapacityMargin - covered[g];
      if (gap > worst_gap && best_column[g] < layout.columns.size()) {
        worst_gap = gap;
        worst = g;
      }
    }
    if (worst == group_count) break;  // all demand covered
    const std::size_t buy = best_column[worst];
    ++counts[buy];
    --budget;
    covered[worst] += candidate_of(request, layout, buy).capacity_per_instance;
  }

  allocation_plan plan = plan_from_counts(request, layout, counts);
  plan.feasible = true;
  for (group_id g = 0; g < group_count; ++g) {
    if (group_capacity(request, layout, counts, g) <
        request.workload_per_group[g] + kCapacityMargin) {
      plan.feasible = false;
    }
  }
  plan.best_effort = true;
  plan.status = plan.feasible ? ilp::solve_status::optimal
                              : ilp::solve_status::infeasible;
  return plan;
}

}  // namespace mca::core
