#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
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
  return cand.cost_per_hour <= 0
             ? 1e18
             : cand.capacity_per_instance /
                   static_cast<double>(cand.cost_per_hour);
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
        cand.cost_per_hour * static_cast<util::money>(counts[i]);
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

/// One undominated candidate of a group, as the exact search sees it.
struct tier {
  std::size_t column = 0;
  double capacity = 0.0;
  util::money cost = 0;
};

/// Group `g`'s candidates with the dominated ones dropped, largest
/// capacity first.  Candidate d dominates c when K_d >= K_c and c_d <= c_c
/// and d is larger, cheaper or listed first: swapping a c for a d never
/// costs more, needs no extra instance and ranks no lower under the tie
/// rule, so no plan the allocator returns uses c.  What survives has
/// distinct capacities and strictly falling costs.
std::vector<tier> undominated_tiers(const allocation_request& request,
                                    const column_layout& layout, group_id g) {
  std::vector<tier> tiers;
  const std::vector<std::size_t>& columns = layout.by_group[g];
  for (std::size_t a = 0; a < columns.size(); ++a) {
    const allocation_candidate& c = candidate_of(request, layout, columns[a]);
    bool dominated = false;
    for (std::size_t b = 0; b < columns.size() && !dominated; ++b) {
      const allocation_candidate& d =
          candidate_of(request, layout, columns[b]);
      dominated = b != a &&
                  d.capacity_per_instance >= c.capacity_per_instance &&
                  d.cost_per_hour <= c.cost_per_hour &&
                  (d.capacity_per_instance > c.capacity_per_instance ||
                   d.cost_per_hour < c.cost_per_hour || b < a);
    }
    if (!dominated) {
      tiers.push_back(
          {columns[a], c.capacity_per_instance, c.cost_per_hour});
    }
  }
  std::sort(tiers.begin(), tiers.end(), [](const tier& x, const tier& y) {
    return x.capacity > y.capacity;
  });
  return tiers;
}

/// Smallest count of `capacity` that covers `remaining`.
std::size_t covering_count(double remaining, double capacity) {
  if (remaining <= 0.0) return 0;
  auto n = static_cast<std::size_t>(std::ceil(remaining / capacity));
  while (static_cast<double>(n) * capacity < remaining) ++n;
  return n;
}

/// The cost of no cover at all.
constexpr util::money kNoCover = std::numeric_limits<util::money>::max();

/// One group's cover: instance counts per tier, in tier order.
struct group_cover {
  util::money cost = kNoCover;
  std::size_t instances = 0;
  std::vector<std::size_t> counts;
};

/// Depth-first search over one group's covers of `demand` that hold no
/// spare instance (every tier buys at most enough to cover the rest
/// alone, the last tier exactly that): no plan the tie rule picks holds a
/// spare, since dropping it costs no more and saves an instance.  Tiers
/// go in order, each tier's count from high to low, so covers are met in
/// descending lexicographic order and the first of equal cost and count
/// is the one the tie rule keeps.
class cover_search {
 public:
  cover_search(const std::vector<tier>& tiers, double demand)
      : tiers_{tiers}, demand_{demand}, counts_(tiers.size(), 0),
        rate_(tiers.size()) {
    // rate_[i]: the least cost per unit of capacity among tiers i...
    double rate = std::numeric_limits<double>::infinity();
    for (std::size_t i = tiers.size(); i-- > 0;) {
      rate = std::min(
          rate, static_cast<double>(tiers[i].cost) / tiers[i].capacity);
      rate_[i] = rate;
    }
  }

  /// The cheapest cover, the fewest instances among equal costs.  A
  /// branch is cut when its cost so far plus the remaining demand at the
  /// best cost per capacity left exceeds the best cover found by more
  /// than half a unit: covers cost whole units, so only costlier ones
  /// are cut, however that bound rounds.
  group_cover cheapest() {
    most_ = 0;
    visit(0, demand_, 0, 0);
    return best_;
  }

  /// [k]: the cheapest cover with exactly k instances, for k up to
  /// `most` (infinite cost where none has k).  No cost cut: every cover
  /// of at most `most` instances is visited.
  std::vector<group_cover> cheapest_by_count(std::size_t most) {
    most_ = most;
    by_count_.assign(most + 1, group_cover{});
    visit(0, demand_, 0, 0);
    return std::move(by_count_);
  }

 private:
  void record(std::size_t used, util::money cost) {
    group_cover& best = most_ == 0 ? best_ : by_count_[used];
    if (cost < best.cost || (cost == best.cost && used < best.instances)) {
      best.cost = cost;
      best.instances = used;
      best.counts = counts_;
    }
  }

  /// Tiers `i` onwards must cover `remaining`; `used` instances are
  /// placed so far at `cost`.
  void visit(std::size_t i, double remaining, std::size_t used,
             util::money cost) {
    if (i == tiers_.size()) {
      if (remaining <= 0.0) record(used, cost);
      return;
    }
    if (most_ == 0 && static_cast<double>(cost) +
                              std::max(remaining, 0.0) * rate_[i] >
                          static_cast<double>(best_.cost) + 0.5) {
      return;
    }
    const tier& t = tiers_[i];
    const std::size_t most = covering_count(remaining, t.capacity);
    // Even the largest tier left would take the count past `most_`.
    if (most_ != 0 && used + most > most_) return;
    const std::size_t least = i + 1 == tiers_.size() ? most : 0;
    for (std::size_t n = most + 1; n-- > least;) {
      counts_[i] = n;
      visit(i + 1, remaining - static_cast<double>(n) * t.capacity, used + n,
            cost + static_cast<util::money>(n) * t.cost);
    }
    counts_[i] = 0;
  }

  const std::vector<tier>& tiers_;
  double demand_;
  std::size_t most_ = 0;  ///< 0: cheapest(); else cheapest_by_count()
  std::vector<std::size_t> counts_;
  std::vector<double> rate_;
  group_cover best_;
  std::vector<group_cover> by_count_;
};

/// Joins one cover per group into a plan (column order, like every other
/// strategy's plan).
allocation_plan plan_from_covers(const allocation_request& request,
                                 const column_layout& layout,
                                 const std::vector<std::vector<tier>>& tiers,
                                 const std::vector<group_cover>& covers) {
  std::vector<std::size_t> counts(layout.columns.size(), 0);
  for (std::size_t g = 0; g < covers.size(); ++g) {
    for (std::size_t i = 0; i < covers[g].counts.size(); ++i) {
      counts[tiers[g][i].column] = covers[g].counts[i];
    }
  }
  allocation_plan plan = plan_from_counts(request, layout, counts);
  plan.feasible = true;
  return plan;
}

/// The exact solve, or nullopt when no plan within the cap covers every
/// group.  Each group's own cheapest cover first; a plan the tie rule
/// picks never gives a group more instances than that cover holds.  Only
/// when those counts overrun the cap does each group tabulate its best
/// cover per count, from the fewest that can cover (k_min) up to its own
/// cover's, and a DP over the instances spent (groups g.. at exactly s)
/// pick one count per group, the smallest on equal costs so the tie
/// rule's count order falls out.
std::optional<allocation_plan> solve_exact(const allocation_request& request,
                                           const column_layout& layout) {
  const std::size_t group_count = request.candidates_per_group.size();
  std::vector<std::vector<tier>> tiers(group_count);
  std::vector<double> demand(group_count, 0.0);
  std::vector<std::size_t> k_min(group_count, 0);
  std::vector<group_cover> own(group_count, group_cover{0, 0, {}});
  std::size_t floor_total = 0;
  std::size_t own_total = 0;
  for (group_id g = 0; g < group_count; ++g) {
    tiers[g] = undominated_tiers(request, layout, g);
    if (tiers[g].empty()) continue;
    demand[g] = request.workload_per_group[g] + kCapacityMargin;
    k_min[g] = covering_count(demand[g], tiers[g].front().capacity);
    own[g] = cover_search{tiers[g], demand[g]}.cheapest();
    floor_total += k_min[g];
    own_total += own[g].instances;
  }
  const std::size_t cap = request.max_total_instances;
  if (floor_total > cap) return std::nullopt;
  if (own_total <= cap) return plan_from_covers(request, layout, tiers, own);

  std::vector<std::vector<group_cover>> by_count(group_count);
  for (group_id g = 0; g < group_count; ++g) {
    by_count[g] = tiers[g].empty()
                      ? std::vector<group_cover>{own[g]}
                      : cover_search{tiers[g], demand[g]}.cheapest_by_count(
                            own[g].instances);
  }
  std::vector<std::vector<util::money>> rest(group_count + 1);
  std::vector<std::vector<std::size_t>> pick(group_count);
  rest[group_count] = {0};
  for (std::size_t g = group_count; g-- > 0;) {
    const std::vector<util::money>& after = rest[g + 1];
    const std::size_t k_max = own[g].instances;
    const std::size_t top = std::min(cap, after.size() - 1 + k_max);
    rest[g].assign(top + 1, kNoCover);
    pick[g].assign(top + 1, 0);
    for (std::size_t s = k_min[g]; s <= top; ++s) {
      for (std::size_t k = k_min[g]; k <= std::min(s, k_max); ++k) {
        if (s - k >= after.size() || by_count[g][k].cost == kNoCover ||
            after[s - k] == kNoCover) {
          continue;
        }
        const util::money cost = by_count[g][k].cost + after[s - k];
        if (cost < rest[g][s]) {
          rest[g][s] = cost;
          pick[g][s] = k;
        }
      }
    }
  }
  std::size_t spent = 0;
  for (std::size_t s = 1; s < rest[0].size(); ++s) {
    if (rest[0][s] < rest[0][spent]) spent = s;
  }
  std::vector<group_cover> chosen(group_count);
  for (group_id g = 0; g < group_count; ++g) {
    chosen[g] = std::move(by_count[g][pick[g][spent]]);
    spent -= pick[g][spent];
  }
  return plan_from_covers(request, layout, tiers, chosen);
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
      if (cand.cost_per_hour < 0) {
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
                             obs::registry* registry) {
  validate(request);
  const column_layout layout = flatten(request);
  if (layout.columns.empty()) {
    throw std::invalid_argument{"allocate_ilp: no candidates at all"};
  }
  if (registry) registry->add(obs::counter::ilp_solves);
  if (!uncoverable_demand(request)) {
    if (std::optional<allocation_plan> plan = solve_exact(request, layout)) {
      return std::move(*plan);
    }
  }
  if (registry) registry->add(obs::counter::ilp_best_effort);
  return allocate_best_effort(request);
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
  return plan;
}

}  // namespace mca::core
