#include "core/allocator.h"

#include <gtest/gtest.h>

#include <cmath>

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

/// Multi-group, multi-tier shape for the batched allocator cross-checks.
allocation_request batched_shape() {
  allocation_request shape;
  shape.workload_per_group = {0.0, 0.0, 0.0};
  shape.candidates_per_group = {
      {{"small", 10.0, 1.0}, {"large", 40.0, 3.0}},
      {{"small", 12.0, 1.0}, {"wide", 90.0, 6.5}},
      {{"large", 35.0, 3.0}, {"wide", 100.0, 7.0}},
  };
  shape.max_total_instances = 64;
  return shape;
}

TEST(BatchedAllocator, ValidatesShapeAndDemands) {
  EXPECT_THROW(batched_allocator{allocation_request{}}, std::invalid_argument);
  batched_allocator allocator{batched_shape()};
  EXPECT_EQ(allocator.group_count(), 3u);
  const double two_groups[2] = {1.0, 2.0};
  EXPECT_THROW(allocator.solve(two_groups), std::invalid_argument);
  const double negative[3] = {1.0, -2.0, 0.0};
  EXPECT_THROW(allocator.solve(negative), std::invalid_argument);
}

class BatchedMatchesIndependent
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedMatchesIndependent, RandomDemandWalks) {
  // The batched path must be a pure optimization: over a random walk of
  // demand vectors (the consecutive-slots-barely-move regime plus jumps),
  // every solve's cost and feasibility must match a cold allocate_ilp of
  // the same request.
  util::rng rng{GetParam()};
  const allocation_request shape = batched_shape();
  batched_allocator allocator{shape};
  std::vector<double> demand{25.0, 40.0, 80.0};
  for (int step = 0; step < 12; ++step) {
    for (auto& d : demand) {
      // Mostly small drifts, occasionally a jump or a collapse to zero.
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.7) {
        d = std::max(0.0, d + rng.uniform(-6.0, 6.0));
      } else if (pick < 0.85) {
        d = rng.uniform(0.0, 400.0);
      } else {
        d = 0.0;
      }
    }
    const allocation_plan warm = allocator.solve(demand);
    allocation_request request = shape;
    request.workload_per_group = demand;
    const allocation_plan cold = allocate_ilp(request);
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    EXPECT_EQ(warm.feasible, cold.feasible) << "step " << step;
    EXPECT_EQ(warm.best_effort, cold.best_effort) << "step " << step;
    // Equal optimum cost is the contract; the plans themselves may
    // differ between cost ties.
    EXPECT_NEAR(warm.total_cost_per_hour, cold.total_cost_per_hour, 1e-6)
        << "step " << step;
  }
  EXPECT_EQ(allocator.solves(), 12u);
  EXPECT_GT(allocator.warm_solves(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedMatchesIndependent,
                         ::testing::Range<std::uint64_t>(7000, 7012));

TEST(BatchedAllocator, ZeroNodeBudgetMatchesColdFallback) {
  // max_nodes == 0 yields no incumbent on the cold path; the warm path
  // must not sneak one in via the root heuristics or the hint.
  ilp::ilp_options opts;
  opts.max_nodes = 0;
  batched_allocator allocator{batched_shape(), opts};
  const double demand[3] = {25.0, 40.0, 80.0};
  for (int slot = 0; slot < 2; ++slot) {
    const allocation_plan warm = allocator.solve(demand);
    allocation_request request = batched_shape();
    request.workload_per_group.assign(demand, demand + 3);
    const allocation_plan cold = allocate_ilp(request, opts);
    EXPECT_EQ(warm.status, ilp::solve_status::iteration_limit);
    EXPECT_EQ(warm.best_effort, cold.best_effort) << "slot " << slot;
    EXPECT_NEAR(warm.total_cost_per_hour, cold.total_cost_per_hour, 1e-9)
        << "slot " << slot;
  }
}

TEST(BatchedAllocator, InfeasibleSlotFallsBackLikeAllocateIlp) {
  allocation_request shape = batched_shape();
  // One instance per group fits (margin instances), the big demand cannot.
  shape.max_total_instances = 4;
  batched_allocator allocator{shape};
  const double demand[3] = {500.0, 500.0, 500.0};
  const allocation_plan plan = allocator.solve(demand);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_FALSE(plan.feasible);
  EXPECT_LE(plan.total_instances(), 4u);
  // The allocator recovers on the next (feasible) slot.
  const double light[3] = {5.0, 5.0, 5.0};
  const allocation_plan next = allocator.solve(light);
  EXPECT_TRUE(next.feasible);
  EXPECT_FALSE(next.best_effort);
}

TEST(BatchedAllocator, MultiPeriodSolvesMatchPerSlotCalls) {
  const allocation_request shape = batched_shape();
  const std::vector<std::vector<double>> periods = {
      {30.0, 50.0, 120.0}, {32.0, 48.0, 118.0}, {28.0, 55.0, 121.0},
      {0.0, 0.0, 0.0},     {200.0, 10.0, 40.0},
  };
  batched_allocator allocator{shape};
  for (std::size_t t = 0; t < periods.size(); ++t) {
    const allocation_plan warm = allocator.solve(periods[t]);
    allocation_request request = shape;
    request.workload_per_group = periods[t];
    const auto cold = allocate_ilp(request);
    EXPECT_NEAR(warm.total_cost_per_hour, cold.total_cost_per_hour, 1e-6)
        << "period " << t;
    EXPECT_EQ(warm.feasible, cold.feasible) << "period " << t;
  }
  EXPECT_EQ(allocator.solves(), periods.size());
}

TEST(BatchedAllocator, NoCandidatesForDemandedGroupGoesBestEffort) {
  allocation_request shape;
  shape.workload_per_group = {0.0, 0.0};
  shape.candidates_per_group = {{{"small", 10.0, 1.0}}, {}};
  batched_allocator allocator{shape};
  const double uncovered[2] = {5.0, 3.0};  // group 1 demand, no candidates
  const allocation_plan plan = allocator.solve(uncovered);
  EXPECT_TRUE(plan.best_effort);
  EXPECT_EQ(plan.status, ilp::solve_status::infeasible);
  const double covered[2] = {5.0, 0.0};
  EXPECT_TRUE(allocator.solve(covered).feasible);
}

}  // namespace
}  // namespace mca::core
