#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace mca::core {
namespace {

constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

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

/// The shared ILP model of one deployment shape: columns per candidate,
/// per group a workload row plus a cardinality cut, the account-cap row
/// last.  `demand_row[g]` / `count_row[g]` locate group g's rows (kNoRow
/// when the group contributed no terms) so the batched allocator can
/// re-aim both rhs values without rebuilding.
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
struct allocation_model {
  ilp::problem model;
  std::vector<std::size_t> demand_row;
  std::vector<std::size_t> count_row;
  /// Largest single-instance capacity among each workload row's columns.
  std::vector<double> max_capacity;
  std::size_t cap_row = kNoRow;
};

/// Rhs of group g's cardinality cut for a given workload-row rhs.
double count_row_rhs(double workload_rhs, double max_capacity) {
  if (workload_rhs <= 0.0 || max_capacity <= 0.0) return 0.0;
  return std::ceil(workload_rhs / max_capacity - 1e-9);
}

/// Whether the cardinality cut can tighten the LP for this demand: the
/// relaxation buys ~rhs / K* instances of the best capacity-per-dollar
/// candidate (capacity K*), so the cut binds only when that falls short
/// of the integer minimum ceil(rhs / K_max).  Groups whose demand dwarfs
/// a single instance fail this test, and their cut would be a dead
/// tableau row that only slows every pivot down.
bool count_row_binds(double workload_rhs, double best_value_capacity,
                     double max_capacity) {
  if (workload_rhs <= 0.0 || best_value_capacity <= 0.0) return false;
  return workload_rhs / best_value_capacity <
         count_row_rhs(workload_rhs, max_capacity) - 1e-9;
}

/// `all_cuts` emits every group's cardinality cut regardless of the
/// current demand — the batched allocator needs them in place because
/// later slots re-aim the rhs to demands where they do bind; one-shot
/// solves skip the dead ones.
allocation_model build_model(const allocation_request& request,
                             const column_layout& layout,
                             std::span<const double> demand, bool all_cuts) {
  allocation_model out;
  for (const auto& col : layout.columns) {
    const auto& cand = request.candidates_per_group[col.group][col.candidate];
    out.model.add_integer_variable(
        cand.cost_per_hour, 0.0,
        static_cast<double>(request.max_total_instances),
        cand.type_name + "@g" + std::to_string(col.group));
  }

  const std::size_t group_count = request.candidates_per_group.size();
  out.demand_row.assign(group_count, kNoRow);
  out.count_row.assign(group_count, kNoRow);
  out.max_capacity.assign(group_count, 0.0);
  for (group_id g = 0; g < group_count; ++g) {
    std::vector<ilp::linear_term> terms;
    for (const std::size_t i : layout.by_group[g]) {
      terms.push_back(
          {i, candidate_of(request, layout, i).capacity_per_instance});
    }
    if (terms.empty()) continue;
    std::vector<ilp::linear_term> count_terms;
    count_terms.reserve(terms.size());
    double best_value_capacity = 0.0;
    double best_value = -1.0;
    for (const auto& term : terms) {
      out.max_capacity[g] = std::max(out.max_capacity[g], term.coeff);
      count_terms.push_back({term.var, 1.0});
      const double value = value_density(candidate_of(request, layout, term.var));
      if (value > best_value) {
        best_value = value;
        best_value_capacity = term.coeff;
      }
    }
    const double rhs = demand[g] + kCapacityMargin;
    out.demand_row[g] = out.model.constraint_count();
    out.model.add_constraint(std::move(terms), ilp::relation::greater_equal,
                             rhs, "workload_g" + std::to_string(g));
    if (all_cuts ||
        count_row_binds(rhs, best_value_capacity, out.max_capacity[g])) {
      out.count_row[g] = out.model.constraint_count();
      out.model.add_constraint(std::move(count_terms),
                               ilp::relation::greater_equal,
                               count_row_rhs(rhs, out.max_capacity[g]),
                               "min_count_g" + std::to_string(g));
    }
  }

  std::vector<ilp::linear_term> cap_terms;
  cap_terms.reserve(layout.columns.size());
  for (std::size_t i = 0; i < layout.columns.size(); ++i) {
    cap_terms.push_back({i, 1.0});
  }
  out.cap_row = out.model.constraint_count();
  out.model.add_constraint(std::move(cap_terms), ilp::relation::less_equal,
                           static_cast<double>(request.max_total_instances),
                           "account_cap");
  return out;
}

/// True when some group's demand has no capacity terms to cover it — the
/// structurally infeasible case that short-circuits to best effort.
bool uncoverable_demand(const allocation_model& m,
                        std::span<const double> demand) {
  for (group_id g = 0; g < m.demand_row.size(); ++g) {
    if (m.demand_row[g] == kNoRow && demand[g] > 0.0) {
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

allocation_plan allocate_ilp(const allocation_request& request) {
  return allocate_ilp(request, ilp::ilp_options{});
}

allocation_plan allocate_ilp(const allocation_request& request,
                             const ilp::ilp_options& opts) {
  validate(request);
  const column_layout layout = flatten(request);
  if (layout.columns.empty()) {
    throw std::invalid_argument{"allocate_ilp: no candidates at all"};
  }

  const allocation_model m = build_model(
      request, layout, request.workload_per_group, /*all_cuts=*/false);
  if (uncoverable_demand(m, request.workload_per_group)) {
    // Demand with no candidates is structurally infeasible.
    allocation_plan plan = allocate_best_effort(request);
    plan.status = ilp::solve_status::infeasible;
    return plan;
  }

  const ilp::solution solved = ilp::solve_ilp(m.model, opts);
  // An exhausted node budget still returns the best incumbent found — a
  // feasible integral plan, usually better than the greedy fill.  Only a
  // truly empty result (infeasible, unbounded, or a budget too small to
  // find any incumbent) falls back to best effort.
  const bool usable =
      solved.status == ilp::solve_status::optimal ||
      (solved.status == ilp::solve_status::iteration_limit &&
       !solved.values.empty());
  if (!usable) {
    allocation_plan plan = allocate_best_effort(request);
    plan.status = solved.status;
    return plan;
  }
  return plan_from_values(request, layout, solved.values, solved.status);
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

// ---- batched multi-slot allocation ----------------------------------------

struct batched_allocator::impl {
  allocation_request shape;
  ilp::ilp_options opts;
  column_layout layout;
  allocation_model m;
  /// The persistent root tableau: built on the first ILP solve, then only
  /// rhs-synced + dual-resolved between slots.  Its variable bounds are
  /// never tightened — branch & bound works on copies.
  std::optional<ilp::dense_tableau> root;
  /// Previous slot's integral plan, fed to branch & bound as incumbent.
  std::vector<double> incumbent;
  std::size_t solves = 0;
  std::size_t warm = 0;
  obs::registry* obs = nullptr;

  /// The fully materialized single-slot request (for fallback paths that
  /// reuse the plain allocators).
  allocation_request with_demand(std::span<const double> demand,
                                 std::size_t cap) const {
    allocation_request request = shape;
    request.workload_per_group.assign(demand.begin(), demand.end());
    request.max_total_instances = cap;
    return request;
  }
};

batched_allocator::batched_allocator(allocation_request shape,
                                     ilp::ilp_options opts)
    : impl_{std::make_unique<impl>()} {
  shape.workload_per_group.assign(shape.candidates_per_group.size(), 0.0);
  validate(shape);
  impl_->shape = std::move(shape);
  impl_->opts = opts;
  impl_->layout = flatten(impl_->shape);
  if (impl_->layout.columns.empty()) {
    throw std::invalid_argument{"batched_allocator: no candidates at all"};
  }
  impl_->m = build_model(impl_->shape, impl_->layout,
                         impl_->shape.workload_per_group, /*all_cuts=*/true);
}

batched_allocator::batched_allocator(batched_allocator&&) noexcept = default;
batched_allocator& batched_allocator::operator=(batched_allocator&&) noexcept =
    default;
batched_allocator::~batched_allocator() = default;

std::size_t batched_allocator::group_count() const noexcept {
  return impl_->shape.candidates_per_group.size();
}

std::size_t batched_allocator::solves() const noexcept {
  return impl_->solves;
}

std::size_t batched_allocator::warm_solves() const noexcept {
  return impl_->warm;
}

void batched_allocator::set_observability(obs::registry* registry) noexcept {
  impl_->obs = registry;
}

allocation_plan batched_allocator::solve(
    std::span<const double> demand_per_group,
    std::size_t max_total_instances) {
  impl& im = *impl_;
  if (demand_per_group.size() != im.shape.candidates_per_group.size()) {
    throw std::invalid_argument{
        "batched_allocator: demand/group count mismatch"};
  }
  for (const double d : demand_per_group) {
    if (d < 0.0) {
      throw std::invalid_argument{"batched_allocator: negative demand"};
    }
  }
  const std::size_t cap =
      max_total_instances == 0
          ? im.shape.max_total_instances
          : std::min(max_total_instances, im.shape.max_total_instances);
  ++im.solves;
  if (im.obs) im.obs->add(obs::counter::ilp_solves);

  if (uncoverable_demand(im.m, demand_per_group)) {
    if (im.obs) im.obs->add(obs::counter::ilp_best_effort);
    allocation_plan plan =
        allocate_best_effort(im.with_demand(demand_per_group, cap));
    plan.status = ilp::solve_status::infeasible;
    return plan;
  }

  // Re-aim the workload rows, their cardinality cuts, and the cap row.
  // The model mutates first so a cold rebuild inside resolve() (or the
  // first build) reads the same demands the incremental sync applies.
  for (group_id g = 0; g < im.m.demand_row.size(); ++g) {
    const std::size_t row = im.m.demand_row[g];
    if (row == kNoRow) continue;
    const double rhs = demand_per_group[g] + kCapacityMargin;
    im.m.model.set_constraint_rhs(row, rhs);
    if (im.root) {
      im.root->sync_constraint_rhs(row);
      if (im.obs) im.obs->add(obs::counter::ilp_rhs_reaims);
    }
    const std::size_t cut = im.m.count_row[g];
    if (cut == kNoRow) continue;
    im.m.model.set_constraint_rhs(cut,
                                  count_row_rhs(rhs, im.m.max_capacity[g]));
    if (im.root) {
      im.root->sync_constraint_rhs(cut);
      if (im.obs) im.obs->add(obs::counter::ilp_rhs_reaims);
    }
  }
  im.m.model.set_constraint_rhs(im.m.cap_row, static_cast<double>(cap));
  if (im.root) {
    im.root->sync_constraint_rhs(im.m.cap_row);
    if (im.obs) im.obs->add(obs::counter::ilp_rhs_reaims);
  }

  ilp::solve_status root_status;
  bool warm_solve = false;
  const std::size_t pivots_before = im.root ? im.root->pivots() : 0;
  if (!im.root) {
    im.root.emplace(im.m.model, im.opts.lp.tolerance);
    if (im.obs) im.obs->add(obs::counter::ilp_root_builds);
    root_status = im.root->solve(im.opts.lp);
  } else {
    root_status = im.root->resolve(im.opts.lp);
    warm_solve = true;
  }

  const bool seeded = !im.incumbent.empty();
  const ilp::solution solved = ilp::solve_ilp_warm(
      im.m.model, *im.root, root_status, im.opts,
      seeded ? &im.incumbent : nullptr);
  if (im.obs) {
    im.obs->add(obs::counter::ilp_bb_nodes, solved.iterations);
    im.obs->observe(obs::series::ilp_nodes_per_solve,
                    static_cast<double>(solved.iterations));
    im.obs->add(obs::counter::ilp_root_pivots,
                im.root->pivots() - pivots_before);
    if (seeded) im.obs->add(obs::counter::ilp_incumbent_seeds);
  }
  const bool usable =
      solved.status == ilp::solve_status::optimal ||
      (solved.status == ilp::solve_status::iteration_limit &&
       !solved.values.empty());
  if (!usable) {
    if (im.obs) im.obs->add(obs::counter::ilp_best_effort);
    allocation_plan plan =
        allocate_best_effort(im.with_demand(demand_per_group, cap));
    plan.status = solved.status;
    return plan;
  }
  if (warm_solve) {
    ++im.warm;
    if (im.obs) im.obs->add(obs::counter::ilp_warm_solves);
  }
  im.incumbent = solved.values;
  return plan_from_values(im.shape, im.layout, solved.values, solved.status);
}

}  // namespace mca::core
