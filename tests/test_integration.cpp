// Cross-module integration tests: the paper's headline behaviours,
// end to end, on scaled-down versions of the §VI experiments.
#include <gtest/gtest.h>


#include "client/usage_trace.h"
#include "core/classifier.h"
#include "core/system.h"
#include "exp/scenario.h"
#include "net/operators.h"
#include "recording_sink.h"
#include "trace/log_store.h"
#include "workload/generator.h"

namespace mca::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  tasks::task_pool pool_;
};

TEST_F(IntegrationTest, PromotedUsersSeeFasterResponses) {
  // Scaled-down Fig. 9: heavy background on every server; users promoted
  // to faster groups must perceive lower response times.
  system_config config;
  config.groups = {
      {1, "t2.nano", 1, 5.0},
      {2, "t2.large", 1, 40.0},
      {3, "m4.4xlarge", 1, 100.0},
  };
  config.user_count = 30;
  config.tasks = workload::static_source(pool_.static_minimax_request());
  config.gaps = [](util::rng&) { return util::seconds(20); };
  config.slot_length = util::minutes(15);
  config.background_requests_per_burst = 40;
  config.promotion_probability = 1.0 / 25.0;
  config.seed = 3;
  offloading_system system{config, pool_};
  system.run(util::hours(1));

  util::running_stats group1;
  util::running_stats group3;
  for (const auto& r : system.metrics().requests) {
    if (!r.success) continue;
    if (r.group == 1) group1.add(r.response_ms);
    if (r.group == 3) group3.add(r.response_ms);
  }
  ASSERT_GT(group1.count(), 50u);
  ASSERT_GT(group3.count(), 50u);
  EXPECT_LT(group3.mean(), group1.mean() * 0.7);
}

TEST_F(IntegrationTest, AccelerationRatiosSurviveTheFullStack) {
  // Fig. 5 through the SDN: the same static minimax, solo per group, must
  // show the catalog's speed ratios in T_cloud.
  sim::simulation sim;
  cloud::backend_pool backend{sim, util::rng{5}};
  backend.launch(1, cloud::type_by_name("t2.nano"));
  backend.launch(2, cloud::type_by_name("t2.large"));
  backend.launch(3, cloud::type_by_name("m4.4xlarge"));
  sdn_config config;
  config.routing_overhead_sd_ms = 0.0;
  sdn_accelerator sdn{sim, backend, net::default_lte_model(), config,
                      util::rng{6}};
  test_support::recording_sink sink;
  sdn.set_response_sink(&sink);
  const auto minimax = pool_.static_minimax_request();

  request_id next = 0;
  for (group_id g = 1; g <= 3; ++g) {
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(static_cast<double>(next) * 5'000.0, [&, g] {
        workload::offload_request r;
        r.id = ++next;
        r.user = 1;
        r.work = minimax;
        r.created_at = sim.now();
        sdn.submit(r, g);
      });
      ++next;
    }
  }
  sim.run();
  std::map<group_id, util::running_stats> cloud_time;
  for (const auto& response : sink.responses) {
    cloud_time[response.group].add(response.timing.cloud);
  }
  const double level1 = cloud_time[1].mean();
  const double level2 = cloud_time[2].mean();
  const double level3 = cloud_time[3].mean();
  EXPECT_NEAR(level1 / level2, 1.25, 0.08);
  EXPECT_NEAR(level1 / level3, 1.73, 0.12);
  EXPECT_NEAR(level2 / level3, 1.38, 0.12);
}

TEST_F(IntegrationTest, ClassifierCapacitiesFeedTheAllocator) {
  // Pipeline: characterize two types, then let the ILP choose a fleet for
  // a 60-user group-1 workload using the measured Ks values.
  classifier_config cc;
  cc.rounds_per_level = 2;
  cc.load_levels = {1, 10, 20, 30, 40, 60, 80, 100};
  const auto nano = characterize_type(cloud::type_by_name("t2.nano"), pool_, cc);
  const auto large =
      characterize_type(cloud::type_by_name("t2.large"), pool_, cc);
  ASSERT_GT(nano.capacity_requests_per_min, 0.0);
  ASSERT_GT(large.capacity_requests_per_min, nano.capacity_requests_per_min);

  allocation_request request;
  request.workload_per_group = {60.0};
  request.candidates_per_group = {{
      {"t2.nano", nano.capacity_requests_per_min,
       cloud::type_by_name("t2.nano").cost_per_hour},
      {"t2.large", large.capacity_requests_per_min,
       cloud::type_by_name("t2.large").cost_per_hour},
  }};
  const auto plan = allocate_ilp(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.total_instances(), 0u);
  EXPECT_LE(plan.total_instances(), 20u);
}

TEST_F(IntegrationTest, DiurnalWorkloadIsPredictable) {
  // Fig. 10a mechanism: a usage-study-driven diurnal workload, sliced into
  // slots, must be predictable well above chance once history accumulates.
  util::rng rng{9};
  trace::log_store log;
  client::usage_study_config study;
  study.participants = 4;
  study.days = 4.0;
  for (user_id u = 0; u < study.participants; ++u) {
    util::rng stream = rng.fork();
    const auto events = client::synthesize_participant_events(study, stream);
    for (const auto t : events) {
      log.append({t, u, 1, 1.0, 200.0});
    }
  }
  const auto slots = log.build_slots(util::hours(1.0), 2);
  ASSERT_GT(slots.size(), 48u);
  const auto accuracy = walk_forward_accuracy(slots, slots.size() / 2);
  ASSERT_TRUE(accuracy.has_value());
  EXPECT_GT(*accuracy, 0.7);
}

TEST_F(IntegrationTest, AdaptiveBeatsStaticPeakOnCost) {
  // The allocator's reason to exist: tracking the predicted workload must
  // be cheaper than provisioning every slot for the peak.
  const std::vector<double> hourly_workload = {5, 8, 20, 45, 30, 12};
  allocation_request base;
  base.workload_per_group = {0.0};
  base.candidates_per_group = {{{"t2.nano", 10.0, 1}}};

  util::money adaptive_cost = 0;
  util::money static_cost = 0;
  for (const double w : hourly_workload) {
    auto request = base;
    request.workload_per_group[0] = w;
    adaptive_cost += allocate_ilp(request).total_cost_per_hour;
    static_cost += allocate_static_peak(base, 45.0).total_cost_per_hour;
  }
  EXPECT_LT(adaptive_cost * 4, static_cost * 3);  // under 75%
}

TEST_F(IntegrationTest, RunningSystemForecastsTheSlotItJustClosed) {
  // Records the self-match (ROADMAP, predictor item, step ii): at every
  // boundary the system adds the closed slot to the knowledge base and then
  // forecasts from that same slot, which is its own nearest neighbour at
  // distance 0.  Every forecast therefore equals the closed slot's own
  // counts, in both modes: the running system forecasts by persistence.
  // Step (ii) removes the self-match and must update this test
  // deliberately.
  for (const exp::scenario_spec& builtin : exp::builtin_scenarios()) {
    if (builtin.name != "smoke" && builtin.name != "fig10_adaptive") continue;
    for (const prediction_mode mode :
         {prediction_mode::successor, prediction_mode::match}) {
      SCOPED_TRACE(builtin.name + " " + to_string(mode));
      exp::scenario_spec spec = builtin;
      spec.predictor_mode = mode;
      exp::replication_context context;
      context.seed = spec.base_seed;
      const system_metrics metrics =
          exp::run_replication(spec, pool_, context);
      ASSERT_EQ(metrics.slots.size(), 4u);
      std::size_t forecasts = 0;
      for (const slot_report& slot : metrics.slots) {
        if (!slot.predicted_counts) continue;
        ++forecasts;
        EXPECT_EQ(*slot.predicted_counts, slot.actual_counts)
            << "slot " << slot.slot_index;
      }
      // Successor mode needs two slots of history, match mode one.
      EXPECT_EQ(forecasts, mode == prediction_mode::successor ? 3u : 4u);
    }
  }
}

}  // namespace
}  // namespace mca::core
