#include "fleet/fleet_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fleet/coordinator.h"
#include "fleet/demand_digest.h"
#include "fleet/shard.h"
#include "tasks/task.h"

namespace mca::fleet {
namespace {

/// Small fleet scenario: quick even single-threaded, yet crossing several
/// slot boundaries so the coordinator actually provisions.
exp::scenario_spec tiny_fleet_scenario() {
  exp::scenario_spec spec;
  spec.name = "tiny_fleet";
  spec.base_seed = 4242;
  spec.user_count = 60;
  spec.duration = util::minutes(40.0);
  spec.slot_length = util::minutes(10.0);
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.05;
  spec.background_requests_per_burst = 2;
  spec.background_burst_period = util::seconds(10.0);
  spec.groups = {{1, "t2.nano", 1, 4.0}, {2, "t2.large", 1, 30.0}};
  spec.fleet_max_total_instances = 40;
  return spec;
}

demand_digest make_digest(std::size_t shard, std::vector<double> demand,
                          bool predicted = true) {
  demand_digest digest;
  digest.shard = shard;
  digest.has_prediction = predicted;
  digest.demand_per_group = std::move(demand);
  return digest;
}

TEST(ShardUserCount, SplitsRemainderAcrossLowShards) {
  EXPECT_EQ(shard_user_count(10, 0, 4), 3u);
  EXPECT_EQ(shard_user_count(10, 1, 4), 3u);
  EXPECT_EQ(shard_user_count(10, 2, 4), 2u);
  EXPECT_EQ(shard_user_count(10, 3, 4), 2u);
  std::size_t total = 0;
  for (std::size_t k = 0; k < 7; ++k) total += shard_user_count(100, k, 7);
  EXPECT_EQ(total, 100u);
}

TEST(DemandDigest, CombineSumsPredictingShardsOnly) {
  const demand_digest digests[3] = {
      make_digest(0, {4.0, 1.0}),
      make_digest(1, {0.0, 0.0}, /*predicted=*/false),
      make_digest(2, {2.0, 5.0}),
  };
  const fleet_demand fleet = combine(digests, 3);
  EXPECT_EQ(fleet.predicting_shards, 2u);
  ASSERT_EQ(fleet.demand_per_group.size(), 3u);
  EXPECT_DOUBLE_EQ(fleet.demand_per_group[0], 6.0);
  EXPECT_DOUBLE_EQ(fleet.demand_per_group[1], 6.0);
  EXPECT_DOUBLE_EQ(fleet.demand_per_group[2], 0.0);
  EXPECT_DOUBLE_EQ(fleet.total(), 12.0);
}

TEST(DemandDigest, CombineRejectsOverWideDigests) {
  const demand_digest digests[1] = {make_digest(0, {1.0, 2.0, 3.0})};
  EXPECT_THROW(combine(digests, 2), std::invalid_argument);
}

TEST(SplitFleetPlan, ProportionalWithDeterministicRemainders) {
  core::allocation_plan fleet_plan;
  fleet_plan.feasible = true;
  fleet_plan.status = ilp::solve_status::optimal;
  fleet_plan.entries = {{1, "large", 7}};
  core::allocation_request shape;
  shape.workload_per_group = {0.0, 0.0};
  shape.candidates_per_group = {{}, {{"large", 30.0, 3.0}}};

  // Demands 4:2:1 over three predicting shards -> exact shares 4, 2, 1.
  const demand_digest digests[3] = {
      make_digest(0, {0.0, 4.0}),
      make_digest(1, {0.0, 2.0}),
      make_digest(2, {0.0, 1.0}),
  };
  const auto quotas = split_fleet_plan(fleet_plan, digests, shape);
  ASSERT_EQ(quotas.size(), 3u);
  ASSERT_TRUE(quotas[0] && quotas[1] && quotas[2]);
  EXPECT_EQ(quotas[0]->count_of(1, "large"), 4u);
  EXPECT_EQ(quotas[1]->count_of(1, "large"), 2u);
  EXPECT_EQ(quotas[2]->count_of(1, "large"), 1u);
  // Quota costs come from the shape's candidate prices.
  EXPECT_DOUBLE_EQ(quotas[0]->total_cost_per_hour, 12.0);

  std::size_t total = 0;
  for (const auto& quota : quotas) total += quota->total_instances();
  EXPECT_EQ(total, fleet_plan.total_instances());
}

TEST(SplitFleetPlan, NonPredictingShardKeepsItsFleet) {
  core::allocation_plan fleet_plan;
  fleet_plan.entries = {{1, "large", 4}};
  core::allocation_request shape;
  shape.workload_per_group = {0.0, 0.0};
  shape.candidates_per_group = {{}, {{"large", 30.0, 3.0}}};
  const demand_digest digests[2] = {
      make_digest(0, {0.0, 9.0}),
      make_digest(1, {}, /*predicted=*/false),
  };
  const auto quotas = split_fleet_plan(fleet_plan, digests, shape);
  ASSERT_TRUE(quotas[0].has_value());
  EXPECT_FALSE(quotas[1].has_value());
  EXPECT_EQ(quotas[0]->count_of(1, "large"), 4u);
}

TEST(SplitFleetPlan, ZeroDemandGroupSplitsEquallyWithLowIndexTies) {
  // The margin instance of an idle group: demand 0 everywhere, count 3
  // over two predicting shards -> 2 for shard 0, 1 for shard 1.
  core::allocation_plan fleet_plan;
  fleet_plan.entries = {{0, "small", 3}};
  core::allocation_request shape;
  shape.workload_per_group = {0.0};
  shape.candidates_per_group = {{{"small", 10.0, 1.0}}};
  const demand_digest digests[2] = {
      make_digest(0, {0.0}),
      make_digest(1, {0.0}),
  };
  const auto quotas = split_fleet_plan(fleet_plan, digests, shape);
  EXPECT_EQ(quotas[0]->count_of(0, "small"), 2u);
  EXPECT_EQ(quotas[1]->count_of(0, "small"), 1u);
}

TEST(SplitFleetPlan, MinFootprintCoversDemandingShards) {
  // A consolidated fleet plan (one instance for the whole group) starves
  // every shard the apportionment skips; the resilience floor tops each
  // demanding shard up with one instance of the group's cheapest type.
  core::allocation_plan fleet_plan;
  fleet_plan.entries = {{1, "large", 1}};
  core::allocation_request shape;
  shape.workload_per_group = {0.0, 0.0};
  shape.candidates_per_group = {{}, {{"large", 30.0, 3.0}, {"small", 9.0, 1.0}}};
  const demand_digest digests[3] = {
      make_digest(0, {0.0, 4.0}),
      make_digest(1, {0.0, 3.0}),
      make_digest(2, {0.0, 0.0}),
  };

  // Baseline split: the single instance lands on the highest-demand shard
  // and the others get nothing at all.
  const auto bare = split_fleet_plan(fleet_plan, digests, shape);
  EXPECT_EQ(bare[0]->count_of(1, "large"), 1u);
  EXPECT_EQ(bare[1]->total_instances(), 0u);

  const auto quotas =
      split_fleet_plan(fleet_plan, digests, shape, /*min_footprint=*/true);
  EXPECT_EQ(quotas[0]->count_of(1, "large"), 1u);
  EXPECT_EQ(quotas[0]->count_of(1, "small"), 0u);  // already covered
  EXPECT_EQ(quotas[1]->count_of(1, "small"), 1u);  // cheapest type top-up
  EXPECT_DOUBLE_EQ(quotas[1]->total_cost_per_hour, 1.0);
  EXPECT_EQ(quotas[2]->total_instances(), 0u);  // no demand, no floor
}

TEST(Coordinator, NoPredictionsMeansNoQuotas) {
  coordinator coord{fleet_allocation_shape(tiny_fleet_scenario())};
  const demand_digest digests[2] = {
      make_digest(0, {}, /*predicted=*/false),
      make_digest(1, {}, /*predicted=*/false),
  };
  const auto quotas = coord.allocate_slot(digests);
  EXPECT_FALSE(quotas[0] || quotas[1]);
  ASSERT_EQ(coord.records().size(), 1u);
  EXPECT_FALSE(coord.records()[0].solved);
  EXPECT_EQ(coord.ilp_solves(), 0u);
}

TEST(Coordinator, SolvesFleetDemandAndSplitsCounts) {
  coordinator coord{fleet_allocation_shape(tiny_fleet_scenario())};
  const demand_digest digests[2] = {
      make_digest(0, {0.0, 6.0, 50.0}),
      make_digest(1, {0.0, 2.0, 70.0}),
  };
  const auto quotas = coord.allocate_slot(digests);
  ASSERT_TRUE(quotas[0] && quotas[1]);
  ASSERT_EQ(coord.records().size(), 1u);
  const auto& record = coord.records()[0];
  EXPECT_TRUE(record.solved);
  EXPECT_DOUBLE_EQ(record.fleet_demand, 128.0);
  EXPECT_EQ(quotas[0]->total_instances() + quotas[1]->total_instances(),
            record.fleet_instances);
  EXPECT_EQ(coord.ilp_solves(), 1u);
}

TEST(Coordinator, ReservesNonPredictingShardsInstancesFromCap) {
  // Account cap 40; a warming-up shard still holds 30 instances, so the
  // predicting shard's allocation may use at most 10 — and when the
  // reservation swallows the whole cap, no allocation runs at all.
  auto spec = tiny_fleet_scenario();
  coordinator coord{fleet_allocation_shape(spec)};

  demand_digest idle = make_digest(1, {}, /*predicted=*/false);
  idle.instances = 30;
  const demand_digest digests[2] = {
      make_digest(0, {0.0, 100.0, 200.0}),  // wants far more than 10
      idle,
  };
  const auto quotas = coord.allocate_slot(digests);
  ASSERT_TRUE(quotas[0].has_value());
  EXPECT_FALSE(quotas[1].has_value());
  EXPECT_EQ(coord.records()[0].reserved_instances, 30u);
  EXPECT_LE(quotas[0]->total_instances(), 10u);

  idle.instances = 40;  // reservation swallows the cap entirely
  const demand_digest full[2] = {make_digest(0, {0.0, 5.0, 5.0}), idle};
  const auto none = coord.allocate_slot(full);
  EXPECT_FALSE(none[0].has_value());
  EXPECT_FALSE(coord.records()[1].solved);
}

TEST(Coordinator, ReallocateResplitsLastPlanWithoutSolving) {
  coordinator coord{fleet_allocation_shape(tiny_fleet_scenario())};
  EXPECT_TRUE(coord.reallocate().empty());  // nothing solved yet
  const demand_digest digests[2] = {
      make_digest(0, {0.0, 6.0, 50.0}),
      make_digest(1, {0.0, 2.0, 70.0}),
  };
  const auto quotas = coord.allocate_slot(digests);
  const std::uint64_t solves =
      coord.observability().get(obs::counter::ilp_solves);
  EXPECT_EQ(solves, 1u);

  const auto again = coord.reallocate();
  ASSERT_EQ(again.size(), quotas.size());
  for (std::size_t k = 0; k < quotas.size(); ++k) {
    ASSERT_TRUE(quotas[k] && again[k]) << "shard " << k;
    ASSERT_EQ(again[k]->entries.size(), quotas[k]->entries.size());
    for (const auto& entry : quotas[k]->entries) {
      EXPECT_EQ(again[k]->count_of(entry.group, entry.type_name), entry.count)
          << "shard " << k << " " << entry.type_name;
    }
    EXPECT_DOUBLE_EQ(again[k]->total_cost_per_hour,
                     quotas[k]->total_cost_per_hour);
  }
  EXPECT_EQ(coord.observability().get(obs::counter::ilp_solves), solves);
  EXPECT_EQ(coord.ilp_solves(), 1u);
}

TEST(Coordinator, ReservedSlotEqualsAllocateIlpUnderReducedCap) {
  // A slot whose non-predicting shard holds 30 of the 40-instance cap
  // solves exactly the request allocate_ilp sees with cap 40 - 30.
  const auto shape = fleet_allocation_shape(tiny_fleet_scenario());
  coordinator coord{shape};
  demand_digest idle = make_digest(1, {}, /*predicted=*/false);
  idle.instances = 30;
  const demand_digest digests[2] = {make_digest(0, {0.0, 9.0, 45.0}), idle};
  const auto quotas = coord.allocate_slot(digests);
  ASSERT_TRUE(quotas[0].has_value());

  core::allocation_request request = shape;
  request.workload_per_group = {0.0, 9.0, 45.0};
  request.max_total_instances = shape.max_total_instances - 30;
  const core::allocation_plan expected = core::allocate_ilp(request);
  // One predicting shard: its quota is the whole fleet plan.
  EXPECT_EQ(quotas[0]->total_instances(), expected.total_instances());
  EXPECT_DOUBLE_EQ(quotas[0]->total_cost_per_hour,
                   expected.total_cost_per_hour);
  for (const auto& entry : expected.entries) {
    EXPECT_EQ(quotas[0]->count_of(entry.group, entry.type_name), entry.count)
        << entry.type_name;
  }
  EXPECT_EQ(quotas[0]->best_effort, expected.best_effort);
  EXPECT_EQ(coord.records()[0].fleet_instances, expected.total_instances());
}

TEST(ShardExternalMode, BoundaryParksDemandUntilQuotaApplied) {
  tasks::task_pool tasks;
  const auto spec = tiny_fleet_scenario();
  shard member{spec, tasks, 0, 2};
  member.begin();

  // Slot 0: predictor has no history yet, so no demand is parked.
  demand_digest first = member.advance_to_slot(0);
  EXPECT_EQ(first.shard, 0u);
  EXPECT_FALSE(first.has_prediction);
  // Responses were delivered before the first boundary.
  EXPECT_GT(member.observability().get(obs::counter::sdn_successes) +
                member.observability().get(obs::counter::sdn_failures),
            0u);

  // By the second boundary the successor predictor can forecast.
  demand_digest second = member.advance_to_slot(1);
  ASSERT_TRUE(second.has_prediction);
  ASSERT_EQ(second.demand_per_group.size(), member.system().group_count());

  // Apply a quota and check the backend reshaped to it.
  core::allocation_plan quota;
  quota.feasible = true;
  quota.status = ilp::solve_status::optimal;
  quota.entries = {{1, "t2.nano", 3}, {2, "t2.large", 2}};
  member.apply_quota(quota);
  auto& backend = member.system().backend();
  EXPECT_EQ(backend.instance_count(1, "t2.nano"), 3u);
  EXPECT_EQ(backend.instance_count(2, "t2.large"), 2u);

  const exp::replication_metrics digest = member.finish();
  EXPECT_GT(digest.requests, 0u);
}

TEST(ShardDigest, InstancesAreTheNonDrainingDeployment) {
  // The digest's instance count is the coordinator's reservation input.
  // Drive a faulted fleet by hand (spot strikes, an outage, cold starts)
  // and, 1 ms before every boundary, hand one accepting instance per shard
  // a long job and drain it: still busy (and billed) at the boundary, it
  // must not be counted.
  tasks::task_pool tasks;
  exp::scenario_spec spec = tiny_fleet_scenario();
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 12.0, 12.0};
  spec.faults.outages = {{1, util::minutes(12.0), util::minutes(18.0)}};
  spec.faults.cold_start_mean_ms = 1'000.0;
  spec.faults.local_fallback = true;
  constexpr std::size_t kShards = 2;
  coordinator coord{fleet_allocation_shape(spec)};
  coord.set_resilient_split(true);
  std::vector<std::unique_ptr<shard>> members;
  for (std::size_t k = 0; k < kShards; ++k) {
    members.push_back(std::make_unique<shard>(spec, tasks, k, kShards));
    members.back()->begin();
  }

  std::size_t drained_at_boundary = 0;  // (shard, boundary) pairs
  std::size_t slot = 0;
  for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
       boundary += spec.slot_length, ++slot) {
    std::vector<demand_digest> digests;
    for (auto& member : members) {
      member->advance_to(boundary - 1.0);
      cloud::backend_pool& backend = member->system().backend();
      cloud::instance* victim = nullptr;
      for (group_id g = 0; g < member->system().group_count(); ++g) {
        backend.for_each_accepting(g, [&](cloud::instance& server) {
          if (victim == nullptr) victim = &server;
        });
      }
      const bool drained = victim != nullptr && victim->submit(10'000.0);
      if (drained) victim->drain();

      digests.push_back(member->advance_to_slot(slot));
      std::size_t deployed = 0;
      for (group_id g = 0; g < member->system().group_count(); ++g) {
        deployed += backend.instance_count(g);
      }
      EXPECT_EQ(digests.back().instances, deployed)
          << "shard " << digests.back().shard << " slot " << slot;
      // Every member, draining or not, holds an open billing record.
      const std::size_t members_alive = backend.billing().active_instances();
      EXPECT_LE(digests.back().instances, members_alive);
      if (drained) {
        EXPECT_LT(digests.back().instances, members_alive)
            << "shard " << digests.back().shard << " slot " << slot;
        ++drained_at_boundary;
      }
    }
    const auto quotas = coord.allocate_slot(digests);
    for (std::size_t k = 0; k < kShards; ++k) {
      if (quotas[k]) members[k]->apply_quota(*quotas[k]);
    }
  }
  EXPECT_EQ(slot, 4u);
  // The exclusion was exercised.
  EXPECT_GT(drained_at_boundary, 0u);
  for (auto& member : members) member->finish();
}

TEST(RunFleet, MergesAllUsersAndRecordsSlots) {
  tasks::task_pool tasks;
  exp::thread_pool pool{2};
  const auto spec = tiny_fleet_scenario();
  fleet_options options;
  options.shards = 3;
  const fleet_result result = run_fleet(spec, options, tasks, pool);

  EXPECT_EQ(result.shard_count, 3u);
  EXPECT_EQ(result.per_shard.size(), 3u);
  EXPECT_EQ(result.slot_count, 4u);
  EXPECT_EQ(result.slots.size(), 4u);
  EXPECT_GT(result.aggregate.requests, 0u);
  EXPECT_EQ(result.aggregate.replications, 3u);
  // Slot 0 has no predictions; every later slot solves once.
  EXPECT_FALSE(result.slots[0].solved);
  EXPECT_GT(result.ilp_solves, 0u);
}

TEST(RunFleet, FingerprintIdenticalAcrossThreadCounts) {
  tasks::task_pool tasks;
  const auto spec = tiny_fleet_scenario();
  fleet_options options;
  options.shards = 4;

  fleet_result results[3];
  const std::size_t thread_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    exp::thread_pool pool{thread_counts[i]};
    results[i] = run_fleet(spec, options, tasks, pool);
  }
  const auto reference = results[0].fingerprint();
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].fingerprint(), reference)
        << "thread count " << thread_counts[i];
    // Spot-check raw fields bit-for-bit, not just the hash.
    EXPECT_EQ(results[i].aggregate.response.mean(),
              results[0].aggregate.response.mean());
    EXPECT_EQ(results[i].aggregate.successes, results[0].aggregate.successes);
    ASSERT_EQ(results[i].per_shard.size(), results[0].per_shard.size());
    for (std::size_t k = 0; k < results[0].per_shard.size(); ++k) {
      EXPECT_EQ(results[i].per_shard[k].requests,
                results[0].per_shard[k].requests);
    }
  }
}

TEST(RunFleet, ShardingChangesPartitionNotValidity) {
  // Different shard counts are different experiments (per-shard predictors
  // and rng streams), but every sharding must carry the full population.
  tasks::task_pool tasks;
  exp::thread_pool pool{2};
  const auto spec = tiny_fleet_scenario();
  for (const std::size_t shards : {1, 2, 5}) {
    fleet_options options;
    options.shards = shards;
    const fleet_result result = run_fleet(spec, options, tasks, pool);
    EXPECT_EQ(result.shard_count, shards);
    std::size_t users = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      users += shard_user_count(spec.user_count, k, shards);
    }
    EXPECT_EQ(users, spec.user_count);
    EXPECT_GT(result.aggregate.requests, 0u);
  }
}

TEST(RunFleet, RejectsDegenerateInputs) {
  tasks::task_pool tasks;
  exp::thread_pool pool{1};
  auto spec = tiny_fleet_scenario();
  fleet_options options;
  options.shards = spec.user_count + 1;  // more shards than users
  EXPECT_THROW(run_fleet(spec, options, tasks, pool), std::invalid_argument);

  options.shards = 2;
  spec.user_count = 0;
  EXPECT_THROW(run_fleet(spec, options, tasks, pool), std::invalid_argument);
}

}  // namespace
}  // namespace mca::fleet
