#include "core/system.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/operators.h"

namespace mca::core {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  system_config base_config() {
    system_config config;
    config.groups = {
        {1, "t2.nano", 1, 10.0},
        {2, "t2.large", 1, 40.0},
        {3, "m4.4xlarge", 1, 100.0},
    };
    config.user_count = 20;
    config.tasks = workload::static_source(pool_.static_minimax_request());
    config.gaps = [](util::rng&) { return util::seconds(30); };
    config.slot_length = util::minutes(10);
    config.background_requests_per_burst = 0;  // off for unit tests
    config.sdn.routing_overhead_sd_ms = 0.0;
    // No promotions by default so per-group counts are exact; promotion
    // tests set their own probability.
    config.promotion_probability = 0.0;
    config.seed = 11;
    return config;
  }

  tasks::task_pool pool_;
};

TEST_F(SystemTest, ValidatesConfig) {
  auto no_groups = base_config();
  no_groups.groups.clear();
  EXPECT_THROW(offloading_system(no_groups, pool_), std::invalid_argument);

  auto no_tasks = base_config();
  no_tasks.tasks = nullptr;
  EXPECT_THROW(offloading_system(no_tasks, pool_), std::invalid_argument);

  auto no_users = base_config();
  no_users.user_count = 0;
  EXPECT_THROW(offloading_system(no_users, pool_), std::invalid_argument);

  for (const double p : {-0.1, 1.5, std::nan("")}) {
    auto bad_promotion = base_config();
    bad_promotion.promotion_probability = p;
    EXPECT_THROW(offloading_system(bad_promotion, pool_),
                 std::invalid_argument)
        << "promotion_probability " << p;
  }
}

TEST_F(SystemTest, RunRejectsNonPositiveDuration) {
  offloading_system system{base_config(), pool_};
  EXPECT_THROW(system.run(0.0), std::invalid_argument);
}

TEST_F(SystemTest, RequestsFlowEndToEnd) {
  offloading_system system{base_config(), pool_};
  system.run(util::minutes(30));
  const auto& metrics = system.metrics();
  // 20 users at 1 request / 30 s over 30 min ~ 1200 requests.
  EXPECT_GT(metrics.requests.size(), 600u);
  std::size_t successes = 0;
  for (const auto& r : metrics.requests) {
    if (r.success) ++successes;
    EXPECT_LT(r.user, 20u);
  }
  EXPECT_EQ(successes, metrics.requests.size());  // no saturation here
}

TEST_F(SystemTest, AllUsersStartInInitialGroup) {
  offloading_system system{base_config(), pool_};
  system.run(util::minutes(20));
  for (const auto& r : system.metrics().requests) {
    EXPECT_EQ(r.group, 1u);
  }
  EXPECT_EQ(system.metrics().promotions, 0u);
}

TEST_F(SystemTest, PromotionsMoveUsersUpward) {
  auto config = base_config();
  config.promotion_probability = 0.2;
  offloading_system system{config, pool_};
  system.run(util::minutes(30));
  EXPECT_GT(system.metrics().promotions, 0u);
  // Per-user group series must be non-decreasing (promotion only).
  for (user_id u = 0; u < 20; ++u) {
    const auto series = system.metrics().user_group_series(u);
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i], series[i - 1]);
    }
  }
}

TEST_F(SystemTest, SlotReportsCoverRun) {
  offloading_system system{base_config(), pool_};
  system.run(util::hours(1));
  // 10-minute slots over an hour -> 6 reports.
  EXPECT_EQ(system.metrics().slots.size(), 6u);
  for (const auto& slot : system.metrics().slots) {
    // All 20 users offload every 30 s, so every slot sees all of them.
    std::size_t total = 0;
    for (const auto count : slot.actual_counts) total += count;
    EXPECT_EQ(total, 20u);
  }
}

TEST_F(SystemTest, SlotCountsARequestOnlyIfLoggedBeforeTheBoundary) {
  // Two users send one request each, far apart, over a constant 40 ms
  // link.  A request is logged one internal hop after its back-end
  // completion, at created + response - downlink.  The first boundary
  // goes just before, then just after, the later request's log time.
  // Before it, that request has completed but is not yet logged, so it
  // must not count; the earlier request counts either way.
  auto config = base_config();
  config.user_count = 2;
  config.gaps = [](util::rng&) { return util::minutes(20); };
  config.enable_adaptation = false;
  net::rtt_model_params link;
  link.log_mu = std::log(40.0);
  link.log_sigma = 1e-9;  // effectively constant
  config.mobile_link = net::rtt_model{link, 0.0};
  const double downlink_ms = 20.0;
  auto run = [&](util::time_ms slot_length, util::time_ms duration) {
    auto c = config;
    c.slot_length = slot_length;
    offloading_system system{c, pool_};
    system.run(duration);
    return system.metrics();
  };

  // Probe: one slot longer than the run, to read both requests' timing.
  const system_metrics probe = run(util::hours(1), util::minutes(20));
  ASSERT_EQ(probe.requests.size(), 2u);
  const bool first_is_early =
      probe.requests[0].issued_at < probe.requests[1].issued_at;
  const request_metric& early = probe.requests[first_is_early ? 0 : 1];
  const request_metric& late = probe.requests[first_is_early ? 1 : 0];
  // The two lifecycles do not overlap, so neither slows the other.
  ASSERT_GT(late.issued_at, early.issued_at + early.response_ms);
  const double late_logged_at =
      late.issued_at + late.response_ms - downlink_ms;

  for (const double offset : {-1.5, 1.5}) {
    const double boundary = late_logged_at + offset;
    const system_metrics metrics = run(boundary, boundary);
    // The boundary moved nothing but the slot: same requests, same times.
    ASSERT_EQ(metrics.requests.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(metrics.requests[i].issued_at, probe.requests[i].issued_at);
      EXPECT_EQ(metrics.requests[i].response_ms,
                probe.requests[i].response_ms);
    }
    ASSERT_EQ(metrics.slots.size(), 1u);
    EXPECT_EQ(metrics.slots[0].actual_counts[1], offset < 0.0 ? 1u : 2u)
        << "boundary " << offset << " ms from the later log time";
  }
}

TEST_F(SystemTest, PredictionsAppearOnceHistoryExists) {
  offloading_system system{base_config(), pool_};
  system.run(util::hours(1));
  const auto& slots = system.metrics().slots;
  // First slot: knowledge base too small in successor mode.
  EXPECT_FALSE(slots.front().predicted_counts.has_value());
  EXPECT_TRUE(slots.back().predicted_counts.has_value());
  EXPECT_TRUE(system.metrics().mean_prediction_accuracy().has_value());
  // Stationary workload -> near-perfect prediction.
  EXPECT_GT(*system.metrics().mean_prediction_accuracy(), 0.95);
}

TEST_F(SystemTest, PredictorHistoryHoldsExactSizeSlots) {
  // The boundary scans the evidence bitsets into exact-size groups: no
  // slot in the history keeps capacity beyond its users.
  offloading_system system{base_config(), pool_};
  system.run(util::hours(1));
  const auto& history = system.predictor().history();
  ASSERT_EQ(history.size(), 6u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_GT(history[i].total_users(), 0u) << "slot " << i;
    EXPECT_EQ(history[i].user_capacity(), history[i].total_users())
        << "slot " << i;
  }
}

TEST_F(SystemTest, AdaptationLaunchesInstancesForLoad) {
  auto config = base_config();
  config.user_count = 35;
  // Each nano carries 10 users; 35 users in group 1 need 4 nanos.
  offloading_system system{config, pool_};
  system.run(util::hours(1));
  EXPECT_GE(system.backend().instance_count(1, "t2.nano"), 4u);
}

TEST_F(SystemTest, AdaptationDisabledKeepsInitialFleet) {
  auto config = base_config();
  config.user_count = 35;
  config.enable_adaptation = false;
  offloading_system system{config, pool_};
  system.run(util::hours(1));
  EXPECT_EQ(system.backend().instance_count(1, "t2.nano"), 1u);
  for (const auto& slot : system.metrics().slots) {
    EXPECT_FALSE(slot.plan.has_value());
  }
}

TEST_F(SystemTest, LocalFallbackServesEveryRequestOnTheDevice) {
  // No instances anywhere, no retries: every request is rejected at
  // dispatch and runs on the device, which takes longer than the local
  // compute alone (the network legs are paid too).
  auto config = base_config();
  for (auto& group : config.groups) group.initial_count = 0;
  config.enable_adaptation = false;
  config.user_count = 1;
  config.faults.enabled = true;
  config.faults.max_retries = 0;
  config.faults.local_fallback = true;
  offloading_system system{config, pool_};
  system.run(util::minutes(10));

  const std::vector<request_metric>& requests = system.metrics().requests;
  ASSERT_GE(requests.size(), 10u);
  EXPECT_EQ(system.observability().get(obs::counter::sdn_local_fallbacks),
            requests.size());
  const double work_units = pool_.static_minimax_request().work_units();
  const double local_ms = work_units / config.faults.local_exec_wu_per_ms;
  for (const request_metric& r : requests) {
    ASSERT_TRUE(r.success);
    ASSERT_GT(r.response_ms, local_ms);
  }
}

TEST_F(SystemTest, CostAccruesWithFleet) {
  offloading_system system{base_config(), pool_};
  system.run(util::hours(2));
  EXPECT_GT(system.metrics().total_cost_usd, 0.0);
}

TEST_F(SystemTest, BackgroundLoadInflatesResponseTimes) {
  auto fast = base_config();
  auto loaded = base_config();
  loaded.background_requests_per_burst = 40;
  offloading_system a{fast, pool_};
  offloading_system b{loaded, pool_};
  a.run(util::minutes(20));
  b.run(util::minutes(20));
  double mean_fast = 0.0;
  for (const auto& r : a.metrics().requests) mean_fast += r.response_ms;
  mean_fast /= static_cast<double>(a.metrics().requests.size());
  double mean_loaded = 0.0;
  for (const auto& r : b.metrics().requests) mean_loaded += r.response_ms;
  mean_loaded /= static_cast<double>(b.metrics().requests.size());
  EXPECT_GT(b.metrics().background_submitted, 0u);
  EXPECT_GT(mean_loaded, mean_fast * 1.5);
}

TEST_F(SystemTest, UserSeriesHelpersFilterCorrectly) {
  offloading_system system{base_config(), pool_};
  system.run(util::minutes(20));
  const auto responses = system.metrics().user_response_series(3);
  const auto groups = system.metrics().user_group_series(3);
  EXPECT_EQ(responses.size(), groups.size());
  EXPECT_FALSE(responses.empty());
  for (const double r : responses) EXPECT_GT(r, 0.0);
}

TEST_F(SystemTest, ThreeGLinkIsSlowerEndToEnd) {
  auto lte = base_config();
  auto threeg = base_config();
  threeg.mobile_link = net::calibrated_model(net::operator_by_name("beta"),
                                             net::technology::threeg);
  offloading_system fast{lte, pool_};
  offloading_system slow{threeg, pool_};
  fast.run(util::minutes(20));
  slow.run(util::minutes(20));
  auto mean_response = [](const system_metrics& m) {
    double total = 0.0;
    for (const auto& r : m.requests) total += r.response_ms;
    return total / static_cast<double>(m.requests.size());
  };
  // 3G adds ~100 ms of mean RTT over LTE (paper Fig. 11).
  EXPECT_GT(mean_response(slow.metrics()),
            mean_response(fast.metrics()) + 50.0);
}

TEST_F(SystemTest, MatchModePredictorRuns) {
  auto config = base_config();
  config.predictor_mode = prediction_mode::match;
  offloading_system system{config, pool_};
  system.run(util::hours(1));
  // Match mode predicts from the first boundary (single slot suffices).
  EXPECT_TRUE(system.metrics().slots.front().predicted_counts.has_value());
  EXPECT_GT(*system.metrics().mean_prediction_accuracy(), 0.9);
}

TEST_F(SystemTest, DeterministicForSeed) {
  offloading_system a{base_config(), pool_};
  offloading_system b{base_config(), pool_};
  a.run(util::minutes(15));
  b.run(util::minutes(15));
  ASSERT_EQ(a.metrics().requests.size(), b.metrics().requests.size());
  for (std::size_t i = 0; i < a.metrics().requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metrics().requests[i].response_ms,
                     b.metrics().requests[i].response_ms);
  }
}

}  // namespace
}  // namespace mca::core
