#include "core/allocator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace mca::core {
namespace {

/// One group backed by nano-like (cap 10, $1) and large-like (cap 40, $3).
allocation_request single_group_request(double workload) {
  allocation_request request;
  request.workload_per_group = {workload};
  request.candidates_per_group = {
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}}};
  return request;
}

TEST(AllocatorIlp, PicksCheapestCover) {
  // W=35: 4 smalls = $4 vs 1 large = $3 -> large wins.
  const auto plan = allocate_ilp(single_group_request(35.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "large"), 1u);
  EXPECT_EQ(plan.count_of(0, "small"), 0u);
  EXPECT_DOUBLE_EQ(plan.total_cost_per_hour, 3.0);
}

TEST(AllocatorIlp, SmallWorkloadUsesSmallInstance) {
  const auto plan = allocate_ilp(single_group_request(8.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "small"), 1u);
  EXPECT_DOUBLE_EQ(plan.total_cost_per_hour, 1.0);
}

TEST(AllocatorIlp, MixesTypesWhenOptimal) {
  // W=50: large(40) + small(10) = $4 beats 2 large ($6) and 5 small ($5)...
  // actually 5 small = $5 > $4, 2 large = $6. Mixed is optimal.
  const auto plan = allocate_ilp(single_group_request(50.0 - 1.0));
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.total_cost_per_hour, 4.0);
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
  EXPECT_GT(plan.total_cost_per_hour, 3.0);
}

TEST(AllocatorIlp, MultiGroupAllocation) {
  allocation_request request;
  request.workload_per_group = {0.0, 25.0, 70.0};
  request.candidates_per_group = {
      {{"micro", 5.0, 0.5}},
      {{"nano", 10.0, 1.0}},
      {{"m4", 90.0, 9.0}, {"large", 40.0, 3.0}},
  };
  const auto plan = allocate_ilp(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.count_of(0, "micro"), 1u);   // W=0 -> one instance
  EXPECT_EQ(plan.count_of(1, "nano"), 3u);    // 25 -> 3x10
  // Group 2: 2 large = 80 cap at $6 beats 1 m4 at $9.
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

TEST(AllocatorIlp, ExhaustedNodeBudgetUsesIncumbentNotGreedy) {
  // A node budget of 1 stops branch & bound right after the root: the
  // solver reports iteration_limit but carries the root rounding incumbent
  // — a valid integral plan.  The allocator must ship that plan (flagged
  // as unproven via status) instead of discarding it for the greedy fill.
  allocation_request request;
  request.workload_per_group = {35.0, 55.0, 95.0};
  request.candidates_per_group = {
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}},
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}},
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}},
  };
  ilp::ilp_options opts;
  opts.max_nodes = 1;
  const auto plan = allocate_ilp(request, opts);
  EXPECT_EQ(plan.status, ilp::solve_status::iteration_limit);
  EXPECT_TRUE(plan.feasible);
  EXPECT_FALSE(plan.best_effort);
  // The incumbent covers every group's demand (strict margin included).
  for (group_id g = 0; g < 3; ++g) {
    double capacity = 0.0;
    for (const auto& entry : plan.entries) {
      if (entry.group != g) continue;
      capacity += (entry.type_name == "small" ? 10.0 : 40.0) *
                  static_cast<double>(entry.count);
    }
    EXPECT_GE(capacity, request.workload_per_group[g] + 1.0) << "group " << g;
  }
  // And it is no worse than what the discarded-incumbent bug used to ship.
  const auto greedy = allocate_best_effort(request);
  EXPECT_LE(plan.total_cost_per_hour, greedy.total_cost_per_hour + 1e-9);
}

TEST(AllocatorIlp, ZeroNodeBudgetStillFallsBackToBestEffort) {
  // With no nodes at all there is no incumbent, so the greedy best-effort
  // fill remains the answer of last resort.
  ilp::ilp_options opts;
  opts.max_nodes = 0;
  const auto plan = allocate_ilp(single_group_request(35.0), opts);
  EXPECT_EQ(plan.status, ilp::solve_status::iteration_limit);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_GT(plan.total_instances(), 0u);
}

TEST(AllocatorIlp, StrictModeCannotBorrowAcrossGroups) {
  allocation_request request;
  request.workload_per_group = {30.0, 20.0};
  request.candidates_per_group = {
      {{"slow", 10.0, 10.0}},
      {{"fast", 100.0, 2.0}},
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
      {{"dense", 10.0, 1.0}, {"sparse", 5.0, 1.0}, {"junk", 1.0, 10.0}},
      {{"other", 10.0, 1.0}}};
  request.max_total_instances = 4;  // 4 * 10 = 40 < 101 demanded
  const auto plan = allocate_greedy(request);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_EQ(plan.status, ilp::solve_status::infeasible);
  EXPECT_EQ(plan.total_instances(), 4u);
  // Everything went to the best capacity-per-dollar candidate; nothing was
  // bought after the budget ran out.
  EXPECT_EQ(plan.count_of(0, "dense"), 4u);
  EXPECT_EQ(plan.count_of(0, "sparse"), 0u);
  EXPECT_EQ(plan.count_of(0, "junk"), 0u);
  EXPECT_EQ(plan.count_of(1, "other"), 0u);
  EXPECT_DOUBLE_EQ(plan.total_cost_per_hour, 4.0);
}

TEST(AllocatorGreedy, BudgetExhaustedMidGroupLeavesLaterGroupsEmpty) {
  // The cap dies inside group 0's second-best candidate; group 1 must not
  // be scanned into a purchase, and the spill ordering must hold.
  allocation_request request;
  request.workload_per_group = {45.0, 20.0};
  request.candidates_per_group = {
      {{"best", 10.0, 1.0}, {"spill", 10.0, 2.0}},
      {{"later", 10.0, 1.0}}};
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
      {{"a", 10.0, 1.0}},
      {{"b", 10.0, 1.0}},
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
      {{"a", 10.0, 1.0}},
      {{"b", 10.0, 1.0}},
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
  negative_cost.candidates_per_group[0][0].cost_per_hour = -1.0;
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
      candidates.push_back({"type" + std::to_string(g) + std::to_string(t),
                            rng.uniform(5.0, 60.0), rng.uniform(0.5, 5.0)});
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  request.max_total_instances = 20;

  const auto ilp = allocate_ilp(request);
  const auto greedy = allocate_greedy(request);
  EXPECT_LE(ilp.total_instances(), request.max_total_instances);
  if (ilp.feasible && greedy.feasible) {
    EXPECT_LE(ilp.total_cost_per_hour, greedy.total_cost_per_hour + 1e-9);
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
  request.candidates_per_group = {{{"small", 10.0, 1.0}}, {}};
  const allocation_plan plan = allocate_ilp(request);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_EQ(plan.status, ilp::solve_status::infeasible);
  request.workload_per_group = {5.0, 0.0};
  EXPECT_TRUE(allocate_ilp(request).feasible);
}

TEST(AllocatorIlp, RecordsSolveInternalsIntoRegistry) {
  obs::registry registry;
  allocation_request request;
  request.workload_per_group = {25.0, 40.0, 80.0};
  request.candidates_per_group = {
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}},
      {{"small", 12.0, 1.0}, {"wide", 90.0, 6.5}},
      {{"large", 35.0, 3.0}, {"wide", 100.0, 7.0}},
  };
  const allocation_plan solved = allocate_ilp(request, {}, &registry);
  ASSERT_TRUE(solved.feasible);
  EXPECT_EQ(registry.get(obs::counter::ilp_solves), 1u);
  EXPECT_GE(registry.get(obs::counter::ilp_bb_nodes), 1u);
  EXPECT_GT(registry.get(obs::counter::ilp_root_pivots), 0u);
  EXPECT_EQ(registry.get(obs::counter::ilp_best_effort), 0u);
  EXPECT_EQ(registry.stats(obs::series::ilp_nodes_per_solve).samples, 1u);

  request.max_total_instances = 2;  // three groups cannot fit in two
  EXPECT_TRUE(allocate_ilp(request, {}, &registry).best_effort);
  EXPECT_EQ(registry.get(obs::counter::ilp_solves), 2u);
  EXPECT_EQ(registry.get(obs::counter::ilp_best_effort), 1u);
}

/// Minimum cost over every count vector of `request` within its cap whose
/// capacity strictly exceeds each group's demand (constraint (2) as the
/// paper writes it), or nullopt when no vector covers every group.
std::optional<double> enumerated_min_cost(const allocation_request& request) {
  std::vector<const allocation_candidate*> columns;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < request.candidates_per_group.size(); ++g) {
    for (const auto& cand : request.candidates_per_group[g]) {
      columns.push_back(&cand);
      group_of.push_back(g);
    }
  }
  std::optional<double> best;
  std::vector<std::size_t> counts(columns.size(), 0);
  const auto visit = [&](const auto& self, std::size_t col,
                         std::size_t budget) -> void {
    if (col == columns.size()) {
      std::vector<double> capacity(request.workload_per_group.size(), 0.0);
      double cost = 0.0;
      for (std::size_t i = 0; i < columns.size(); ++i) {
        const auto n = static_cast<double>(counts[i]);
        capacity[group_of[i]] += n * columns[i]->capacity_per_instance;
        cost += n * columns[i]->cost_per_hour;
      }
      for (std::size_t g = 0; g < capacity.size(); ++g) {
        if (!(capacity[g] > request.workload_per_group[g])) return;
      }
      if (!best || cost < *best) best = cost;
      return;
    }
    for (std::size_t n = 0; n <= budget; ++n) {
      counts[col] = n;
      self(self, col + 1, budget - n);
    }
    counts[col] = 0;
  };
  visit(visit, 0, request.max_total_instances);
  return best;
}

TEST(AllocatorIlp, MatchesExhaustiveEnumeration) {
  // Every small request's ILP cost must equal the enumerated minimum, and
  // best effort must be flagged exactly when no count vector within the
  // cap covers every group.  Integer capacities, costs and demands keep
  // the enumeration exact.
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
             static_cast<double>(rng.uniform_int(0, 6))});
      }
      request.candidates_per_group.push_back(std::move(candidates));
    }
    request.max_total_instances =
        static_cast<std::size_t>(rng.uniform_int(1, 6));

    const std::optional<double> expected = enumerated_min_cost(request);
    const allocation_plan plan = allocate_ilp(request);
    EXPECT_LE(plan.total_instances(), request.max_total_instances)
        << "instance " << instance;
    ASSERT_EQ(plan.best_effort, !expected.has_value())
        << "instance " << instance;
    if (!expected) {
      ++infeasible;
      continue;
    }
    EXPECT_TRUE(plan.feasible) << "instance " << instance;
    EXPECT_EQ(plan.status, ilp::solve_status::optimal)
        << "instance " << instance;
    EXPECT_DOUBLE_EQ(plan.total_cost_per_hour, *expected)
        << "instance " << instance;
    if (plan.total_instances() == request.max_total_instances) ++cap_binding;
  }
  // The generator must keep reaching every regime the check is for.
  EXPECT_GE(zero_demand, 200);
  EXPECT_GE(cap_binding, 200);
  EXPECT_GE(infeasible, 200);
}

/// Fleet-scale allocation: 64 groups x 8 candidate tiers under one
/// account cap — 512 integer columns against a 65-row tableau (the
/// explicit-row formulation would need 577 rows).  Capacity tiers are 13
/// apart with tier 1 the best capacity-per-dollar everywhere; most groups'
/// demands sit on that tier's quantum (integral LP vertices, the common
/// case for a provisioned fleet) and every 16th group lands off-quantum,
/// so the solve still branches through warm-started dual re-optimizations
/// rather than finishing at the root.
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
      cand.cost_per_hour = (0.02 + 0.03 * c * c) * (1.0 + 0.02 * (g % 5));
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

TEST(AllocatorIlp, FleetScale64x8SolvesToOptimality) {
  // Larger than any production request (at most 4 groups x 3
  // candidates): the default node budget must still reach optimality, and
  // the plan must cost no more than greedy's.
  const allocation_request request = make_64x8_request();
  const allocation_plan plan = allocate_ilp(request);
  EXPECT_EQ(plan.status, ilp::solve_status::optimal);
  EXPECT_LE(plan.total_cost_per_hour,
            allocate_greedy(request).total_cost_per_hour + 1e-6);
}

}  // namespace
}  // namespace mca::core
