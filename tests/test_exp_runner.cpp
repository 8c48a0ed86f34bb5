#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "exp/scenario.h"
#include "fleet/fleet_runner.h"
#include "tasks/task.h"

namespace mca::exp {
namespace {

/// The tiny closed-loop scenario used by the determinism tests: small
/// enough that a 16-thread sweep finishes quickly even on one core.
scenario_spec tiny_scenario() {
  scenario_spec spec;
  spec.name = "tiny";
  spec.base_seed = 99;
  spec.user_count = 8;
  spec.duration = util::minutes(30.0);
  spec.slot_length = util::minutes(10.0);
  // Exponential gaps: the study-trace synthesis would dominate the tests'
  // runtime without adding anything to the determinism property.
  spec.gaps = gap_model::exponential;
  spec.arrival_rate_hz = 0.05;
  spec.background_requests_per_burst = 2;
  spec.background_burst_period = util::seconds(10.0);
  spec.groups = {{1, "t2.nano", 1, 4.0}, {2, "t2.large", 1, 30.0}};
  return spec;
}

TEST(ReplicationPlan, SweepSplitsOneSeedAcrossIndices) {
  const auto plan = replication_plan::sweep(7, 4);
  ASSERT_EQ(plan.count(), 4u);
  for (const auto seed : plan.seeds) EXPECT_EQ(seed, 7u);
  // Same seed, distinct indices: the split streams must still diverge.
  util::rng a = replication_context{0, 7}.stream();
  util::rng b = replication_context{1, 7}.stream();
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(ReplicationRunner, ResultsLandInReplicationOrder) {
  thread_pool pool{4};
  const auto plan = replication_plan::explicit_seeds({10, 11, 12, 13, 14});
  const auto outcome =
      run_replications(pool, plan, [](const replication_context& context) {
        return context.index * 100 + context.seed;
      });
  ASSERT_EQ(outcome.results.size(), 5u);
  EXPECT_TRUE(outcome.errors.empty());
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(outcome.results[i].has_value());
    EXPECT_EQ(*outcome.results[i], i * 100 + 10 + i);
  }
}

TEST(ReplicationRunner, ThrowingReplicationIsReportedNotDropped) {
  thread_pool pool{4};
  const auto plan = replication_plan::sweep(3, 6);
  const auto outcome =
      run_replications(pool, plan, [](const replication_context& context) {
        if (context.index == 2) {
          throw std::runtime_error{"backend exploded"};
        }
        return context.index;
      });
  EXPECT_EQ(outcome.completed(), 5u);
  EXPECT_FALSE(outcome.results[2].has_value());
  ASSERT_EQ(outcome.errors.size(), 1u);
  EXPECT_EQ(outcome.errors[0].index, 2u);
  EXPECT_EQ(outcome.errors[0].seed, 3u);
  EXPECT_EQ(outcome.errors[0].message, "backend exploded");
}

TEST(ReplicationRunner, ParallelMapPreservesOrderAndRethrows) {
  thread_pool pool{4};
  const auto squares =
      parallel_map(pool, 20, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(squares[i], i * i);

  EXPECT_THROW(parallel_map(pool, 4,
                            [](std::size_t i) {
                              if (i == 1) {
                                throw std::invalid_argument{"bad item"};
                              }
                              return i;
                            }),
               std::invalid_argument);
}

TEST(ScenarioRunner, MergedAggregateIsIdenticalAcrossThreadCounts) {
  const auto spec = tiny_scenario();
  const auto plan = spec.plan(6);
  tasks::task_pool tasks;

  scenario_result results[3];
  const std::size_t thread_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    thread_pool pool{thread_counts[i]};
    results[i] = run_scenario(spec, plan, tasks, pool);
    EXPECT_TRUE(results[i].errors.empty());
    EXPECT_EQ(results[i].aggregate.replications, 6u);
    EXPECT_GT(results[i].aggregate.requests, 0u);
  }

  const auto reference = results[0].aggregate.fingerprint();
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].aggregate.fingerprint(), reference)
        << "thread count " << thread_counts[i];
    // Spot-check raw fields bit-for-bit, not just the hash.
    EXPECT_EQ(results[i].aggregate.response.mean(),
              results[0].aggregate.response.mean());
    EXPECT_EQ(results[i].aggregate.cost_usd.sum(),
              results[0].aggregate.cost_usd.sum());
    EXPECT_EQ(results[i].aggregate.successes, results[0].aggregate.successes);
  }
  // And per-replication digests line up one-to-one.
  for (int i = 1; i < 3; ++i) {
    ASSERT_EQ(results[i].per_replication.size(),
              results[0].per_replication.size());
    for (std::size_t r = 0; r < results[0].per_replication.size(); ++r) {
      EXPECT_EQ(results[i].per_replication[r].requests,
                results[0].per_replication[r].requests);
      EXPECT_EQ(results[i].per_replication[r].response.mean(),
                results[0].per_replication[r].response.mean());
    }
  }
}

TEST(ScenarioRunner, ReplicationsVaryButStayDeterministic) {
  const auto spec = tiny_scenario();
  tasks::task_pool tasks;
  thread_pool pool{2};
  const auto result = run_scenario(spec, spec.plan(4), tasks, pool);
  ASSERT_EQ(result.per_replication.size(), 4u);
  // Different rng streams must actually change the workload: at least two
  // replications differ in some digest field.
  bool any_difference = false;
  for (std::size_t r = 1; r < result.per_replication.size(); ++r) {
    if (result.per_replication[r].requests !=
            result.per_replication[0].requests ||
        result.per_replication[r].response.mean() !=
            result.per_replication[0].response.mean()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ReplicationRunner, EveryFailureSurfacesInIndexOrder) {
  thread_pool pool{4};
  const auto plan =
      replication_plan::explicit_seeds({20, 21, 22, 23, 24, 25, 26, 27});
  const auto outcome =
      run_replications(pool, plan, [](const replication_context& context) {
        if (context.index % 2 == 1) {
          throw std::runtime_error{"seed " + std::to_string(context.seed)};
        }
        return context.index;
      });
  EXPECT_EQ(outcome.completed(), 4u);
  ASSERT_EQ(outcome.errors.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t index = 2 * k + 1;
    EXPECT_EQ(outcome.errors[k].index, index);
    EXPECT_EQ(outcome.errors[k].seed, 20 + index);
    EXPECT_EQ(outcome.errors[k].message, "seed " + std::to_string(20 + index));
  }
}

TEST(ScenarioSpecValidation, RejectsDegenerateSpecs) {
  tasks::task_pool tasks;
  thread_pool pool{2};
  // Every entry point rejects the spec upfront, with a message naming the
  // scenario and the offending field — not once per replication or shard.
  const auto expect_rejected = [&](const scenario_spec& spec,
                                   const char* field) {
    const auto names_field = [&](const std::invalid_argument& e,
                                 const char* where) {
      const std::string message = e.what();
      EXPECT_NE(message.find(spec.name), std::string::npos)
          << where << ": " << message;
      EXPECT_NE(message.find(field), std::string::npos)
          << where << ": " << message;
    };
    try {
      validate(spec);
      ADD_FAILURE() << "validate accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      names_field(e, "validate");
    }
    try {
      run_scenario(spec, spec.plan(3), tasks, pool);
      ADD_FAILURE() << "run_scenario accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      names_field(e, "run_scenario");
    }
    try {
      fleet::fleet_options options;
      options.shards = 2;
      fleet::run_fleet(spec, options, tasks, pool);
      ADD_FAILURE() << "run_fleet accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      names_field(e, "run_fleet");
    }
  };

  scenario_spec spec = tiny_scenario();
  EXPECT_NO_THROW(validate(spec));

  spec = tiny_scenario();
  spec.user_count = 0;
  expect_rejected(spec, "user_count");

  spec = tiny_scenario();
  spec.duration = 0.0;
  expect_rejected(spec, "duration");

  spec = tiny_scenario();
  spec.slot_length = -1.0;
  expect_rejected(spec, "slot_length");

  spec = tiny_scenario();
  spec.groups.clear();
  expect_rejected(spec, "groups");

  spec = tiny_scenario();
  spec.arrival_rate_hz = 0.0;
  expect_rejected(spec, "arrival_rate_hz");

  spec = tiny_scenario();
  spec.promotion_probability = 1.5;
  expect_rejected(spec, "promotion_probability");

  spec = tiny_scenario();
  spec.promotion_probability = -0.1;
  expect_rejected(spec, "promotion_probability");

  spec = tiny_scenario();
  spec.background_burst_period = 0.0;
  expect_rejected(spec, "background_burst_period");

  spec = tiny_scenario();
  spec.groups[1].type_name = "no.such.instance";
  expect_rejected(spec, "groups[1].type_name");

  spec = tiny_scenario();
  spec.groups[0].capacity_per_instance = 0.0;
  expect_rejected(spec, "groups[0].capacity_per_instance");

  spec = tiny_scenario();
  spec.max_total_instances = 0;
  expect_rejected(spec, "max_total_instances");

  // The checks bind only where the field is read: study-session gaps never
  // draw from arrival_rate_hz, and no bursts means no burst period.
  spec = tiny_scenario();
  spec.gaps = gap_model::study_sessions;
  spec.arrival_rate_hz = 0.0;
  EXPECT_NO_THROW(validate(spec));
  spec = tiny_scenario();
  spec.background_requests_per_burst = 0;
  spec.background_burst_period = 0.0;
  EXPECT_NO_THROW(validate(spec));
}

TEST(ScenarioSpecValidation, RunScenarioThrowsInsteadOfFailingEverySeed) {
  auto spec = tiny_scenario();
  spec.user_count = 0;
  tasks::task_pool tasks;
  thread_pool pool{2};
  EXPECT_THROW(run_scenario(spec, spec.plan(3), tasks, pool),
               std::invalid_argument);
}

TEST(ScenarioSpecValidation, GroupCountCoversSparseGroupIds) {
  auto spec = tiny_scenario();
  EXPECT_EQ(group_count_of(spec), 3u);  // groups 1 and 2 -> ids 0..2
  spec.groups.push_back({7, "t2.large", 1, 30.0});
  EXPECT_EQ(group_count_of(spec), 8u);
}

TEST(ScenarioMetrics, DigestAndMergeCountConsistently) {
  core::system_metrics metrics;
  metrics.promotions = 2;
  metrics.total_cost_usd = 1.5;
  // Fill the streaming digest and the registry the way the SDN and the
  // response path do.
  auto& streamed = metrics.digest;
  auto& counts = metrics.observability;
  streamed.group_response.resize(3);
  counts.resize_groups(3);
  for (int i = 0; i < 10; ++i) {
    if (i == 9) {  // one failure
      counts.add(obs::counter::sdn_failures);
      continue;
    }
    const double response_ms = 100.0 * (i + 1);
    const group_id group = i % 2 == 0 ? 1 : 2;
    counts.add(obs::counter::sdn_successes);
    streamed.response.add(response_ms);
    streamed.group_response[group].add(response_ms);
    counts.observe_response(group, response_ms);
  }
  const auto digest = digest_metrics(metrics, 3, 77);
  EXPECT_EQ(digest.requests, 10u);
  EXPECT_EQ(digest.successes, 9u);
  EXPECT_EQ(digest.group_successes[1], 5u);
  EXPECT_EQ(digest.group_successes[2], 4u);
  EXPECT_EQ(digest.latency.total(), 9u);

  const replication_metrics digests[2] = {digest, digest};
  const auto merged = merge_replications(digests);
  EXPECT_EQ(merged.replications, 2u);
  EXPECT_EQ(merged.requests, 20u);
  EXPECT_EQ(merged.successes, 18u);
  EXPECT_EQ(merged.latency.total(), 18u);
  EXPECT_DOUBLE_EQ(merged.cost_usd.mean(), 1.5);
  EXPECT_DOUBLE_EQ(merged.acceptance_rate(), 0.9);
}

}  // namespace
}  // namespace mca::exp
