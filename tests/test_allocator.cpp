#include "core/allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "fleet/fleet_runner.h"
#include "util/rng.h"

namespace mca::core {
namespace {

/// One group backed by nano-like (cap 10, cost 1) and large-like (cap 40,
/// cost 3).  Synthetic costs are plain money units.
allocation_request single_group_request(double workload) {
  allocation_request request;
  request.workload_per_group = {workload};
  request.candidates_per_group = {{{"small", 10.0, 1}, {"large", 40.0, 3}}};
  return request;
}

TEST(AllocatorIlp, PicksCheapestCover) {
  // W=35: 4 smalls = 4 vs 1 large = 3 -> large wins.
  const auto plan = allocate_ilp(single_group_request(35.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "large"), 1u);
  EXPECT_EQ(plan.count_of(0, "small"), 0u);
  EXPECT_EQ(plan.total_cost_per_hour, 3);
}

TEST(AllocatorIlp, SmallWorkloadUsesSmallInstance) {
  const auto plan = allocate_ilp(single_group_request(8.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "small"), 1u);
  EXPECT_EQ(plan.total_cost_per_hour, 1);
}

TEST(AllocatorIlp, MixesTypesWhenOptimal) {
  // W=50: large(40) + small(10) = 4 beats 2 large (6) and 5 small (5)...
  // actually 5 small = 5 > 4, 2 large = 6. Mixed is optimal.
  const auto plan = allocate_ilp(single_group_request(50.0 - 1.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_cost_per_hour, 4);
  EXPECT_EQ(plan.total_instances(), 2u);
}

TEST(AllocatorIlp, StrictInequalityForcesInstanceOnZeroWorkload) {
  // The paper's constraint is capacity > W; with W=0 each group still gets
  // one instance (the group must exist to serve promotions).
  const auto plan = allocate_ilp(single_group_request(0.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_instances(), 1u);
}

TEST(AllocatorIlp, ExactCapacityBoundaryNeedsMore) {
  // W=40 with strict inequality: one large (cap 40) is NOT enough.
  const auto plan = allocate_ilp(single_group_request(40.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.total_cost_per_hour, 3);
}

TEST(AllocatorIlp, MultiGroupAllocation) {
  allocation_request request;
  request.workload_per_group = {0.0, 25.0, 70.0};
  request.candidates_per_group = {
      {{"micro", 5.0, 5}},
      {{"nano", 10.0, 10}},
      {{"m4", 90.0, 90}, {"large", 40.0, 30}},
  };
  const auto plan = allocate_ilp(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "micro"), 1u);   // W=0 -> one instance
  EXPECT_EQ(plan.count_of(1, "nano"), 3u);    // 25 -> 3x10
  // Group 2: 2 large = 80 cap at 60 beats 1 m4 at 90.
  EXPECT_EQ(plan.count_of(2, "large"), 2u);
  EXPECT_EQ(plan.count_of(2, "m4"), 0u);
}

TEST(AllocatorIlp, AccountCapTriggersBestEffort) {
  auto request = single_group_request(500.0);  // needs 13 large > cap
  request.max_total_instances = 5;
  const auto plan = allocate_ilp(request);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_FALSE(plan.feasible);
  EXPECT_LE(plan.total_instances(), 5u);
  // Best effort fills the cap with the highest-capacity-per-dollar type.
  EXPECT_EQ(plan.total_instances(), 5u);
}

TEST(AllocatorIlp, CapExactlySufficientStaysExact) {
  auto request = single_group_request(119.0);  // 3 large = 120 > 119
  request.max_total_instances = 3;
  const auto plan = allocate_ilp(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.best_effort);
  EXPECT_EQ(plan.count_of(0, "large"), 3u);
}

TEST(AllocatorIlp, StrictModeCannotBorrowAcrossGroups) {
  allocation_request request;
  request.workload_per_group = {30.0, 20.0};
  request.candidates_per_group = {
      {{"slow", 10.0, 10}},
      {{"fast", 100.0, 2}},
  };
  const auto plan = allocate_ilp(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "slow"), 4u);  // 30 -> strict > needs 4x10
  EXPECT_EQ(plan.count_of(1, "fast"), 1u);
}

TEST(AllocatorGreedy, CoversDemandButMayPayMore) {
  const auto ilp = allocate_ilp(single_group_request(35.0));
  const auto greedy = allocate_greedy(single_group_request(35.0));
  ASSERT_TRUE(greedy.feasible);
  EXPECT_GE(greedy.total_cost_per_hour, ilp.total_cost_per_hour);
}

TEST(AllocatorGreedy, InfeasibleUnderTinyCap) {
  auto request = single_group_request(1'000.0);
  request.max_total_instances = 2;
  const auto plan = allocate_greedy(request);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.best_effort);
}

TEST(AllocatorGreedy, BudgetExhaustedStopsBuyingAndMarksInfeasible) {
  // Group 0 eats the whole cap; the remaining candidates of group 0 and
  // all of group 1 must see no purchases once the budget is gone.
  allocation_request request;
  request.workload_per_group = {100.0, 50.0};
  request.candidates_per_group = {
      {{"dense", 10.0, 1}, {"sparse", 5.0, 1}, {"junk", 1.0, 10}},
      {{"other", 10.0, 1}}};
  request.max_total_instances = 4;  // 4 * 10 = 40 < 101 demanded
  const auto plan = allocate_greedy(request);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_EQ(plan.total_instances(), 4u);
  // Everything went to the best capacity-per-dollar candidate; nothing was
  // bought after the budget ran out.
  EXPECT_EQ(plan.count_of(0, "dense"), 4u);
  EXPECT_EQ(plan.count_of(0, "sparse"), 0u);
  EXPECT_EQ(plan.count_of(0, "junk"), 0u);
  EXPECT_EQ(plan.count_of(1, "other"), 0u);
  EXPECT_EQ(plan.total_cost_per_hour, 4);
}

TEST(AllocatorGreedy, BudgetExhaustedMidGroupLeavesLaterGroupsEmpty) {
  // The cap dies inside group 0's second-best candidate; group 1 must not
  // be scanned into a purchase, and the spill ordering must hold.
  allocation_request request;
  request.workload_per_group = {45.0, 20.0};
  request.candidates_per_group = {
      {{"best", 10.0, 1}, {"spill", 10.0, 2}},
      {{"later", 10.0, 1}}};
  request.max_total_instances = 3;
  // Greedy buys 3x "best" (covered 30 < 46), budget gone before "spill".
  const auto plan = allocate_greedy(request);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.total_instances(), 3u);
  EXPECT_EQ(plan.count_of(0, "best"), 3u);
  EXPECT_EQ(plan.count_of(0, "spill"), 0u);
  EXPECT_EQ(plan.count_of(1, "later"), 0u);
}

TEST(AllocatorStaticPeak, ProvisionsEveryGroupForPeak) {
  allocation_request request;
  request.workload_per_group = {1.0, 2.0};
  request.candidates_per_group = {
      {{"a", 10.0, 1}},
      {{"b", 10.0, 1}},
  };
  const auto plan = allocate_static_peak(request, 35.0);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "a"), 4u);
  EXPECT_EQ(plan.count_of(1, "b"), 4u);
  EXPECT_THROW(allocate_static_peak(request, -1.0), std::invalid_argument);
}

TEST(AllocatorBestEffort, SpreadsCapAcrossNeediestGroups) {
  allocation_request request;
  request.workload_per_group = {100.0, 100.0};
  request.candidates_per_group = {
      {{"a", 10.0, 1}},
      {{"b", 10.0, 1}},
  };
  request.max_total_instances = 10;
  const auto plan = allocate_best_effort(request);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.total_instances(), 10u);
  EXPECT_EQ(plan.count_of(0, "a"), 5u);
  EXPECT_EQ(plan.count_of(1, "b"), 5u);
}

TEST(AllocatorValidation, RejectsMalformedRequests) {
  allocation_request mismatch;
  mismatch.workload_per_group = {1.0};
  mismatch.candidates_per_group = {};
  EXPECT_THROW(validate(mismatch), std::invalid_argument);

  allocation_request empty;
  EXPECT_THROW(validate(empty), std::invalid_argument);

  auto zero_cap = single_group_request(1.0);
  zero_cap.max_total_instances = 0;
  EXPECT_THROW(validate(zero_cap), std::invalid_argument);

  auto bad_capacity = single_group_request(1.0);
  bad_capacity.candidates_per_group[0][0].capacity_per_instance = 0.0;
  EXPECT_THROW(validate(bad_capacity), std::invalid_argument);

  auto negative_cost = single_group_request(1.0);
  negative_cost.candidates_per_group[0][0].cost_per_hour = -1;
  EXPECT_THROW(validate(negative_cost), std::invalid_argument);

  auto negative_workload = single_group_request(-5.0);
  EXPECT_THROW(validate(negative_workload), std::invalid_argument);
}

TEST(AllocationPlan, CountHelpers) {
  allocation_plan plan;
  plan.entries = {{0, "a", 2}, {1, "b", 3}};
  EXPECT_EQ(plan.total_instances(), 5u);
  EXPECT_EQ(plan.count_of(0, "a"), 2u);
  EXPECT_EQ(plan.count_of(0, "b"), 0u);
  EXPECT_EQ(plan.count_of(9, "a"), 0u);
}

/// Property sweep: the ILP plan must always be (a) demand-covering when
/// feasible, (b) never more expensive than greedy, (c) within the cap.
class IlpDominatesGreedy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpDominatesGreedy, OnRandomRequests) {
  util::rng rng{GetParam()};
  allocation_request request;
  const auto groups = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t g = 0; g < groups; ++g) {
    request.workload_per_group.push_back(rng.uniform(0.0, 60.0));
    std::vector<allocation_candidate> candidates;
    const auto types = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t t = 0; t < types; ++t) {
      // $0.5-$5 per hour, in money units.
      candidates.push_back({"type" + std::to_string(g) + std::to_string(t),
                            rng.uniform(5.0, 60.0),
                            rng.uniform_int(5'000, 50'000)});
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  request.max_total_instances = 20;

  const auto ilp = allocate_ilp(request);
  const auto greedy = allocate_greedy(request);
  EXPECT_LE(ilp.total_instances(), request.max_total_instances);
  if (ilp.feasible && greedy.feasible) {
    EXPECT_LE(ilp.total_cost_per_hour, greedy.total_cost_per_hour);
  }
  if (ilp.feasible) {
    // Verify demand coverage per group.
    for (std::size_t g = 0; g < groups; ++g) {
      double capacity = 0.0;
      for (const auto& entry : ilp.entries) {
        if (entry.group != g) continue;
        for (const auto& cand : request.candidates_per_group[g]) {
          if (cand.type_name == entry.type_name) {
            capacity +=
                cand.capacity_per_instance * static_cast<double>(entry.count);
          }
        }
      }
      EXPECT_GT(capacity, request.workload_per_group[g]) << "group " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRequests, IlpDominatesGreedy,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(DemandFromPrediction, WidensAndZeroPads) {
  const std::size_t counts[2] = {7, 3};
  const auto demand = demand_from_prediction(counts, 4);
  ASSERT_EQ(demand.size(), 4u);
  EXPECT_DOUBLE_EQ(demand[0], 7.0);
  EXPECT_DOUBLE_EQ(demand[1], 3.0);
  EXPECT_DOUBLE_EQ(demand[2], 0.0);
  EXPECT_DOUBLE_EQ(demand[3], 0.0);
  // Extra predicted groups beyond the deployment are dropped, not OOB.
  const std::size_t wide[3] = {1, 2, 9};
  EXPECT_EQ(demand_from_prediction(wide, 2).size(), 2u);
}

TEST(AllocatorIlp, NoCandidatesForDemandedGroupGoesBestEffort) {
  allocation_request request;
  request.workload_per_group = {5.0, 3.0};  // group 1 demand, no candidates
  request.candidates_per_group = {{{"small", 10.0, 1}}, {}};
  const allocation_plan plan = allocate_ilp(request);
  EXPECT_TRUE(plan.best_effort);
  request.workload_per_group = {5.0, 0.0};
  EXPECT_TRUE(allocate_ilp(request).feasible);
}

TEST(AllocatorIlp, RecordsSolvesIntoRegistry) {
  obs::registry registry;
  allocation_request request;
  request.workload_per_group = {25.0, 40.0, 80.0};
  request.candidates_per_group = {
      {{"small", 10.0, 10}, {"large", 40.0, 30}},
      {{"small", 12.0, 10}, {"wide", 90.0, 65}},
      {{"large", 35.0, 30}, {"wide", 100.0, 70}},
  };
  const allocation_plan solved = allocate_ilp(request, &registry);
  ASSERT_TRUE(solved.feasible);
  EXPECT_EQ(registry.get(obs::counter::ilp_solves), 1u);
  EXPECT_EQ(registry.get(obs::counter::ilp_best_effort), 0u);

  request.max_total_instances = 2;  // three groups cannot fit in two
  EXPECT_TRUE(allocate_ilp(request, &registry).best_effort);
  EXPECT_EQ(registry.get(obs::counter::ilp_solves), 2u);
  EXPECT_EQ(registry.get(obs::counter::ilp_best_effort), 1u);
}

/// What allocate_ilp's tie rule ranks a plan by, in its order: cost, then
/// total instances, then each group's instance count (fewer first, group
/// 0 first), then each group's counts read from its largest-capacity
/// candidate down (more first; equal capacities in listing order).
struct plan_rank {
  util::money cost = 0;
  std::size_t instances = 0;
  std::vector<std::size_t> per_group;
  std::vector<std::size_t> by_capacity;

  bool better_than(const plan_rank& other) const {
    if (cost != other.cost) return cost < other.cost;
    if (instances != other.instances) return instances < other.instances;
    if (per_group != other.per_group) return per_group < other.per_group;
    return by_capacity > other.by_capacity;
  }
};

/// The plan the tie rule picks among every count vector of `request`
/// within its cap whose capacity strictly exceeds each group's demand
/// (constraint (2) as the paper writes it): one count per candidate, in
/// listing order, groups in order.  Nullopt when no vector covers every
/// group.  A candidate is tried only up to the count that covers its
/// group's demand alone (floor(W / K) + 1): with one more, dropping one
/// instance still covers, costs no more and uses fewer instances, so the
/// rule never picks such a vector.
std::optional<std::vector<std::size_t>> enumerated_best(
    const allocation_request& request) {
  std::vector<const allocation_candidate*> columns;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < request.candidates_per_group.size(); ++g) {
    for (const auto& cand : request.candidates_per_group[g]) {
      columns.push_back(&cand);
      group_of.push_back(g);
    }
  }
  std::vector<std::size_t> by_capacity(columns.size());
  for (std::size_t i = 0; i < by_capacity.size(); ++i) by_capacity[i] = i;
  std::stable_sort(by_capacity.begin(), by_capacity.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (group_of[a] != group_of[b]) {
                       return group_of[a] < group_of[b];
                     }
                     return columns[a]->capacity_per_instance >
                            columns[b]->capacity_per_instance;
                   });
  // A group without candidates (fleet's local group 0) has no row: it
  // needs no cover unless it has demand, and then nothing covers it.
  const std::size_t groups = request.workload_per_group.size();
  for (std::size_t g = 0; g < groups; ++g) {
    if (request.candidates_per_group[g].empty() &&
        request.workload_per_group[g] > 0.0) {
      return std::nullopt;
    }
  }
  std::optional<plan_rank> best_rank;
  std::optional<std::vector<std::size_t>> best;
  std::vector<std::size_t> counts(columns.size(), 0);
  std::vector<double> capacity(groups, 0.0);
  plan_rank rank;
  const auto visit = [&](const auto& self, std::size_t col,
                         std::size_t budget) -> void {
    if (col == columns.size()) {
      rank.cost = 0;
      rank.instances = 0;
      rank.per_group.assign(groups, 0);
      rank.by_capacity.clear();
      for (std::size_t i = 0; i < columns.size(); ++i) {
        rank.cost +=
            static_cast<util::money>(counts[i]) * columns[i]->cost_per_hour;
        rank.instances += counts[i];
        rank.per_group[group_of[i]] += counts[i];
      }
      for (const std::size_t i : by_capacity) {
        rank.by_capacity.push_back(counts[i]);
      }
      if (!best_rank || rank.better_than(*best_rank)) {
        best_rank = rank;
        best = counts;
      }
      return;
    }
    // A group's cover is checked once its last candidate has a count.
    const std::size_t g = group_of[col];
    const bool closes_group =
        col + 1 == columns.size() || group_of[col + 1] != g;
    const double before = capacity[g];
    const std::size_t covering =
        static_cast<std::size_t>(
            std::floor(request.workload_per_group[g] /
                       columns[col]->capacity_per_instance)) +
        1;
    for (std::size_t n = 0; n <= std::min(budget, covering); ++n) {
      counts[col] = n;
      capacity[g] =
          before + static_cast<double>(n) * columns[col]->capacity_per_instance;
      if (closes_group && !(capacity[g] > request.workload_per_group[g])) {
        continue;
      }
      self(self, col + 1, budget - n);
    }
    counts[col] = 0;
    capacity[g] = before;
  };
  visit(visit, 0, request.max_total_instances);
  return best;
}

/// Checks allocate_ilp against the enumerator on one request; returns
/// whether the request was feasible.
bool expect_enumerated_plan(const allocation_request& request, int instance) {
  const std::optional<std::vector<std::size_t>> expected =
      enumerated_best(request);
  const allocation_plan plan = allocate_ilp(request);
  EXPECT_LE(plan.total_instances(), request.max_total_instances)
      << "instance " << instance;
  EXPECT_EQ(plan.best_effort, !expected.has_value())
      << "instance " << instance;
  if (!expected) return false;
  EXPECT_TRUE(plan.feasible) << "instance " << instance;
  util::money cost = 0;
  std::size_t col = 0;
  for (std::size_t g = 0; g < request.candidates_per_group.size(); ++g) {
    for (const auto& cand : request.candidates_per_group[g]) {
      const std::size_t want = (*expected)[col++];
      EXPECT_EQ(plan.count_of(g, cand.type_name), want)
          << "instance " << instance << ", group " << g << ", "
          << cand.type_name;
      cost += cand.cost_per_hour * static_cast<util::money>(want);
    }
  }
  EXPECT_EQ(plan.total_cost_per_hour, cost) << "instance " << instance;
  return true;
}

TEST(AllocatorIlp, MatchesExhaustiveEnumeration) {
  // Every small request's plan must be the one the tie rule picks among
  // all count vectors, count for count, and best effort must be flagged
  // exactly when no count vector within the cap covers every group.
  // Integer capacities, costs and demands keep the enumeration exact, and
  // the small integer ranges make cost ties common.
  util::rng rng{20261017};
  int zero_demand = 0;
  int cap_binding = 0;
  int infeasible = 0;
  for (int instance = 0; instance < 2400; ++instance) {
    allocation_request request;
    const auto groups = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t g = 0; g < groups; ++g) {
      const bool idle = rng.bernoulli(0.2);
      request.workload_per_group.push_back(
          idle ? 0.0 : static_cast<double>(rng.uniform_int(0, 16)));
      if (idle) ++zero_demand;
      std::vector<allocation_candidate> candidates;
      const auto types = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t t = 0; t < types; ++t) {
        candidates.push_back(
            {std::string(1, static_cast<char>('a' + t)),
             static_cast<double>(rng.uniform_int(1, 9)),
             rng.uniform_int(0, 6)});
      }
      request.candidates_per_group.push_back(std::move(candidates));
    }
    request.max_total_instances =
        static_cast<std::size_t>(rng.uniform_int(1, 6));

    if (!expect_enumerated_plan(request, instance)) {
      ++infeasible;
    } else if (allocate_ilp(request).total_instances() ==
               request.max_total_instances) {
      ++cap_binding;
    }
  }
  // The generator must keep reaching every regime the check is for.
  EXPECT_GE(zero_demand, 200);
  EXPECT_GE(cap_binding, 200);
  EXPECT_GE(infeasible, 200);
}

TEST(AllocatorIlp, TieRulePicksFewestInstancesThenGroupOrderThenCapacity) {
  // One group whose candidates all cost 0.2 per unit of capacity: at
  // demand 39 the cheapest covers cost 8 as A+C, B+B, B+2C and 4C.  The
  // fewest instances leave A+C and B+B; the larger capacity first picks
  // A+C.
  allocation_request one;
  one.workload_per_group = {39.0};
  one.candidates_per_group = {{{"B", 20.0, 4}, {"A", 30.0, 6},
                               {"C", 10.0, 2}}};
  const allocation_plan single = allocate_ilp(one);
  ASSERT_TRUE(single.feasible);
  EXPECT_EQ(single.total_cost_per_hour, 8);
  EXPECT_EQ(single.count_of(0, "A"), 1u);
  EXPECT_EQ(single.count_of(0, "B"), 0u);
  EXPECT_EQ(single.count_of(0, "C"), 1u);

  // Fewest instances outranks the larger capacity: at demand 59, one big
  // plus ten units and two mids both cost 60.
  allocation_request spare;
  spare.workload_per_group = {59.0};
  spare.candidates_per_group = {{{"big", 50.0, 50}, {"mid", 30.0, 30},
                                 {"unit", 1.0, 1}}};
  const allocation_plan fewest = allocate_ilp(spare);
  ASSERT_TRUE(fewest.feasible);
  EXPECT_EQ(fewest.total_cost_per_hour, 60);
  EXPECT_EQ(fewest.count_of(0, "mid"), 2u);
  EXPECT_EQ(fewest.total_instances(), 2u);

  // Two equal groups, each cheapest as 2 x C (4) and next as 1 x A (6):
  // under a cap of 3 one group must take A, and (1, 2) and (2, 1)
  // instances tie at cost 10 and 3 instances; group 0 takes the fewer.
  allocation_request two;
  two.workload_per_group = {19.0, 19.0};
  two.candidates_per_group = {{{"A", 20.0, 6}, {"C", 10.0, 2}},
                              {{"A", 20.0, 6}, {"C", 10.0, 2}}};
  two.max_total_instances = 3;
  const allocation_plan coupled = allocate_ilp(two);
  ASSERT_TRUE(coupled.feasible);
  EXPECT_EQ(coupled.total_cost_per_hour, 10);
  EXPECT_EQ(coupled.count_of(0, "A"), 1u);
  EXPECT_EQ(coupled.count_of(0, "C"), 0u);
  EXPECT_EQ(coupled.count_of(1, "A"), 0u);
  EXPECT_EQ(coupled.count_of(1, "C"), 2u);
}

/// The slot-boundary request shape of builtin scenario `name`, at the
/// catalog's prices (whole $0.0001, so equal costs are exact ties).
allocation_request builtin_shape(const std::string& name) {
  for (const exp::scenario_spec& spec : exp::builtin_scenarios()) {
    if (spec.name == name) return fleet::fleet_allocation_shape(spec);
  }
  ADD_FAILURE() << name << " scenario missing";
  return {};
}

TEST(AllocatorIlp, MatchesEnumerationOnProductionShapes) {
  // 10^4 seeded demand vectors on each of two production shapes: the
  // builtin fleet scenario's four groups of one or two EC2 tiers (local
  // group 0 has none), under caps low enough to cut plans below the
  // groups' own cheapest covers, and fig9's three one-tier groups at its
  // cap of 20, where a binding cap leaves no feasible plan.
  struct shape_case {
    std::string scenario;
    std::vector<int> max_demand;  ///< per group
    int min_cap = 0;
    int max_cap = 0;
    int min_cap_binding = 0;  ///< feasible requests the cap cut
    int min_infeasible = 0;
  };
  const shape_case cases[] = {
      {"fleet", {0, 40, 40, 120, 150}, 3, 12, 1'000, 1'000},
      {"fig9_closed_loop", {0, 60, 200, 500}, 20, 20, 0, 1'000},
  };
  util::rng rng{20261020};
  for (const shape_case& c : cases) {
    SCOPED_TRACE(c.scenario);
    allocation_request request = builtin_shape(c.scenario);
    ASSERT_EQ(request.workload_per_group.size(), c.max_demand.size());
    int cap_binding = 0;
    int infeasible = 0;
    for (int instance = 0; instance < 10'000; ++instance) {
      for (std::size_t g = 0; g < c.max_demand.size(); ++g) {
        request.workload_per_group[g] =
            static_cast<double>(rng.uniform_int(0, c.max_demand[g]));
      }
      request.max_total_instances =
          static_cast<std::size_t>(rng.uniform_int(c.min_cap, c.max_cap));
      if (!expect_enumerated_plan(request, instance)) {
        ++infeasible;
        continue;
      }
      allocation_request uncapped = request;
      uncapped.max_total_instances = 1'000;
      if (allocate_ilp(uncapped).total_instances() >
          request.max_total_instances) {
        ++cap_binding;
      }
    }
    EXPECT_GE(cap_binding, c.min_cap_binding);
    EXPECT_GE(infeasible, c.min_infeasible);
  }
}

/// Fleet-scale allocation: 64 groups x 8 candidate tiers under one
/// account cap, far past any production request (at most 4 groups x 3
/// candidates).  Capacity tiers are 13 apart with tier 1 the best
/// capacity-per-dollar everywhere; most groups' demands sit on that
/// tier's quantum and every 16th group lands off it.
allocation_request make_64x8_request() {
  allocation_request request;
  constexpr int kGroups = 64;
  request.max_total_instances = 8 * kGroups;
  for (int g = 0; g < kGroups; ++g) {
    const int quanta = 1 + (g % 5);
    double workload = 21.0 * quanta - 1.0;
    if (g % 16 == 0) workload += 9.0;
    request.workload_per_group.push_back(workload);
    std::vector<allocation_candidate> candidates;
    for (int c = 0; c < 8; ++c) {
      allocation_candidate cand;
      cand.type_name = "tier" + std::to_string(c);
      cand.capacity_per_instance = 8.0 + 13.0 * c;
      // $(0.02 + 0.03 c^2) x (1 + 0.02 (g mod 5)) per hour, in units.
      cand.cost_per_hour = 2 * (2 + 3 * c * c) * (50 + g % 5);
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

TEST(AllocatorIlp, FleetScale64x8CostsNoMoreThanGreedy) {
  const allocation_request request = make_64x8_request();
  const allocation_plan plan = allocate_ilp(request);
  EXPECT_FALSE(plan.best_effort);
  EXPECT_LE(plan.total_instances(), request.max_total_instances);
  EXPECT_LE(plan.total_cost_per_hour,
            allocate_greedy(request).total_cost_per_hour);
}

}  // namespace
}  // namespace mca::core
