#include "core/sdn_accelerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "net/operators.h"
#include "obs/registry.h"
#include "recording_sink.h"
#include "tasks/task.h"
#include "util/stats.h"

namespace mca::core {
namespace {

/// Deterministic, fast mobile link for exact timing assertions.
net::rtt_model fixed_link(double rtt_ms) {
  net::rtt_model_params p;
  p.log_mu = std::log(rtt_ms);
  p.log_sigma = 1e-9;  // effectively constant
  return net::rtt_model{p, 0.0};
}

cloud::instance_type exact_type() {
  cloud::instance_type t;
  t.name = "test.exact";
  t.vcpus = 1.0;
  t.memory_gb = 64.0;
  t.cost_per_hour = 1'000;  // $0.1 per hour
  t.speed_factor = 1.0;
  t.jitter_sigma = 0.0;
  return t;
}

class SdnTest : public ::testing::Test {
 protected:
  SdnTest() {
    config_.routing_overhead_mean_ms = 150.0;
    config_.routing_overhead_sd_ms = 0.0;
    config_.backend_one_way_ms = 3.0;
  }

  /// Points `sdn`'s request counters at the fixture's registry.
  void count(sdn_accelerator& sdn) {
    sdn.set_observability(&obs_, nullptr, 0, 1);
  }
  std::uint64_t succeeded() const {
    return obs_.get(obs::counter::sdn_successes);
  }
  std::uint64_t failed() const { return obs_.get(obs::counter::sdn_failures); }

  workload::offload_request make_request(user_id user) {
    workload::offload_request r;
    r.id = ++next_id_;
    r.user = user;
    r.work = pool_.static_minimax_request();
    r.created_at = sim_.now();
    return r;
  }

  sim::simulation sim_;
  tasks::task_pool pool_;
  cloud::backend_pool backend_{sim_, util::rng{1}};
  trace::log_store log_;
  sdn_config config_;
  test_support::recording_sink sink_;
  obs::registry obs_;
  request_id next_id_ = 0;
};

TEST_F(SdnTest, TimingDecompositionIsExact) {
  backend_.launch(1, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{2}};
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 0.9);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  EXPECT_EQ(sink_.responses[0].group, 1u);
  const request_timing& observed = sink_.responses[0].timing;
  ASSERT_TRUE(observed.success);
  EXPECT_NEAR(observed.mobile_to_front, 20.0, 0.2);   // RTT/2
  EXPECT_NEAR(observed.front_to_mobile, 20.0, 0.2);
  EXPECT_NEAR(observed.routing, 150.0, 1e-9);
  EXPECT_NEAR(observed.front_to_back, 3.0, 1e-9);
  EXPECT_NEAR(observed.back_to_front, 3.0, 1e-9);
  // T_cloud: 280 wu minimax + 8 wu spawn on a 1 wu/ms core.
  EXPECT_NEAR(observed.cloud, 288.0, 2.5);
  EXPECT_NEAR(observed.t1(), 40.0, 0.4);
  EXPECT_NEAR(observed.t2(), 156.0, 1e-9);
  EXPECT_NEAR(observed.total(),
              observed.t1() + observed.t2() + observed.cloud, 1e-9);
}

TEST_F(SdnTest, RoutingOverheadIsAboutOneFiftyMs) {
  // The overhead is drawn at admission, right after the half-RTT sample,
  // over the paper's LTE link.  Requests are 2 s apart, so none overlap.
  constexpr std::size_t n = 20'000;
  backend_.launch(1, exact_type());
  config_.routing_overhead_sd_ms = 20.0;
  sdn_accelerator sdn{sim_, backend_, net::default_lte_model(), &log_,
                      config_, util::rng{3}};
  sdn.set_response_sink(&sink_);
  for (std::size_t i = 0; i < n; ++i) {
    sim_.schedule_at(static_cast<double>(i) * 2'000.0, [&, i] {
      sdn.submit(make_request(static_cast<user_id>(i)), 1, 1.0);
    });
  }
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), n);

  // Every request reaches the sink exactly once with its routing time, so
  // Fig. 8a collects its samples there, ordered by request id.
  std::vector<int> seen(n, 0);
  util::running_stats routing;
  util::running_stats uplink;
  for (const auto& response : sink_.responses) {
    const request_timing& t = response.timing;
    ASSERT_TRUE(t.success);
    ASSERT_LE(response.request.id, n);
    ++seen[response.request.id - 1];
    EXPECT_EQ(t.front_to_back, config_.backend_one_way_ms);
    EXPECT_EQ(t.back_to_front, config_.backend_one_way_ms);
    routing.add(t.routing);
    uplink.add(t.mobile_to_front);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(n));
  // Against N(150, 20) (the 5 ms floor sits 7 sd below the mean): the
  // sample mean's standard error is 20/sqrt(n) ~ 0.14 ms and the sample
  // sd's is about 20/sqrt(2n) ~ 0.10 ms; allow five of each.
  const double root_n = std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(routing.mean(), 150.0, 5.0 * 20.0 / root_n);
  EXPECT_NEAR(routing.stddev(), 20.0, 5.0 * 20.0 / (std::sqrt(2.0) * root_n));

  // The two admission draws are back to back on one stream.  Independent
  // draws give a sample correlation with standard error ~1/sqrt(n); a
  // reused or overlapping draw would show up far beyond four of those.
  double covariance = 0.0;
  for (const auto& response : sink_.responses) {
    covariance += (response.timing.routing - routing.mean()) *
                  (response.timing.mobile_to_front - uplink.mean());
  }
  covariance /= static_cast<double>(n - 1);
  const double correlation =
      covariance / (routing.stddev() * uplink.stddev());
  EXPECT_LE(std::abs(correlation), 4.0 / root_n);
}

TEST_F(SdnTest, LogsTraceRecordPerSuccess) {
  backend_.launch(2, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{4}};
  sdn.submit(make_request(7), 2, 0.65);
  sim_.run();
  ASSERT_EQ(log_.size(), 1u);
  const auto& record = log_.records()[0];
  EXPECT_EQ(record.user, 7u);
  EXPECT_EQ(record.group, 2u);
  EXPECT_DOUBLE_EQ(record.battery_level, 0.65);
  EXPECT_GT(record.rtt_ms, 400.0);  // T1 + T2 + Tcloud
}

TEST_F(SdnTest, NullLogPointerIsSafe) {
  backend_.launch(1, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), nullptr, config_,
                      util::rng{6}};
  count(sdn);
  sdn.submit(make_request(1), 1, 1.0);
  sim_.run();
  EXPECT_EQ(succeeded(), 1u);
}

/// A sink that counts responses and keeps the users its trace point saw.
class tracing_sink final : public response_sink {
 public:
  void on_response(const workload::offload_request& /*request*/,
                   const request_timing& /*timing*/,
                   group_id /*group*/) override {
    ++responses;
  }
  void on_trace(util::time_ms logged_at, util::time_ms created_at,
                user_id user, group_id group) override {
    EXPECT_GE(logged_at, created_at);
    EXPECT_EQ(group, 1u);
    traced_users.push_back(user);
  }

  std::size_t responses = 0;
  std::vector<user_id> traced_users;
};

TEST_F(SdnTest, TracePointFiresOncePerSuccessWithOrWithoutALog) {
  // The trace point feeds the owner's slot windows, so it must fire for
  // every successful request (and no failed one) whether or not a log
  // store is attached; the closed-loop system attaches none.
  backend_.launch(1, exact_type());
  for (const bool attach_log : {true, false}) {
    trace::log_store log;
    sdn_accelerator sdn{sim_, backend_, fixed_link(40.0),
                        attach_log ? &log : nullptr, config_, util::rng{10}};
    tracing_sink sink;
    sdn.set_response_sink(&sink);
    obs::registry counts;
    sdn.set_observability(&counts, nullptr, 0, 1);
    sdn.submit(make_request(1), 1, 1.0);
    sdn.submit(make_request(2), 9, 1.0);  // no such group: fails
    sdn.submit(make_request(3), 1, 1.0);
    sim_.run();
    ASSERT_EQ(sink.responses, 3u);
    const std::uint64_t successes = counts.get(obs::counter::sdn_successes);
    EXPECT_EQ(successes, 2u);
    EXPECT_EQ(sink.traced_users.size(), successes);
    EXPECT_EQ(std::set<user_id>(sink.traced_users.begin(),
                                sink.traced_users.end()),
              (std::set<user_id>{1, 3}));
    EXPECT_EQ(log.size(), attach_log ? 2u : 0u);
  }
}

TEST_F(SdnTest, MissingGroupFailsTheRequest) {
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{7}};
  count(sdn);
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 9, 1.0);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  const request_timing& observed = sink_.responses[0].timing;
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(observed.cloud, 0.0);
  EXPECT_EQ(failed(), 1u);
  EXPECT_EQ(succeeded(), 0u);
  EXPECT_EQ(log_.size(), 0u);  // failures are not logged as processed
}

TEST_F(SdnTest, SaturatedBackendDropsAreReported) {
  auto tiny = exact_type();
  tiny.memory_gb = 0.1;  // floor admission cap applies
  const auto burst = tiny.max_concurrent() + 12;
  backend_.launch(1, tiny);
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{8}};
  count(sdn);
  sdn.set_response_sink(&sink_);
  for (std::size_t i = 0; i < burst; ++i) {
    sdn.submit(make_request(static_cast<user_id>(i)), 1, 1.0);
  }
  sim_.run();
  int failures = 0;
  for (const auto& response : sink_.responses) {
    if (!response.timing.success) ++failures;
  }
  EXPECT_EQ(obs_.get(obs::counter::sdn_requests), burst);
  EXPECT_GT(failures, 0);
  EXPECT_EQ(succeeded() + failed(), burst);
}

TEST_F(SdnTest, CountsMultipleGroupsSeparately) {
  backend_.launch(1, exact_type());
  backend_.launch(2, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{9}};
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 1.0);
  sdn.submit(make_request(2), 2, 1.0);
  sdn.submit(make_request(3), 2, 1.0);
  sim_.run();
  std::map<group_id, std::size_t> per_group;
  for (const auto& response : sink_.responses) {
    EXPECT_TRUE(response.timing.success);
    ++per_group[response.group];
  }
  EXPECT_EQ(per_group, (std::map<group_id, std::size_t>{{1, 1}, {2, 2}}));
}

TEST_F(SdnTest, ThreeGLinkInflatesT1Only) {
  // One front-end per pool: the 3G front-end gets an identical back-end.
  backend_.launch(1, exact_type());
  cloud::backend_pool threeg_backend{sim_, util::rng{1}};
  threeg_backend.launch(1, exact_type());
  sdn_accelerator lte{sim_, backend_, fixed_link(40.0), nullptr, config_,
                      util::rng{10}};
  sdn_accelerator threeg{sim_, threeg_backend, fixed_link(130.0), nullptr,
                         config_, util::rng{10}};
  test_support::recording_sink threeg_sink;
  lte.set_response_sink(&sink_);
  threeg.set_response_sink(&threeg_sink);
  lte.submit(make_request(1), 1, 1.0);
  sim_.run();
  threeg.submit(make_request(2), 1, 1.0);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  ASSERT_EQ(threeg_sink.responses.size(), 1u);
  const request_timing& timing_lte = sink_.responses[0].timing;
  const request_timing& timing_threeg = threeg_sink.responses[0].timing;
  EXPECT_NEAR(timing_threeg.t1() - timing_lte.t1(), 90.0, 2.0);
  // The internal path is identical: same routing model, same backend hops.
  EXPECT_NEAR(timing_threeg.front_to_back, timing_lte.front_to_back, 1e-9);
}

TEST_F(SdnTest, ConcurrentSubmissionsShareTheBackend) {
  backend_.launch(1, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{11}};
  sdn.set_response_sink(&sink_);
  for (int i = 0; i < 4; ++i) {
    sdn.submit(make_request(static_cast<user_id>(i)), 1, 1.0);
  }
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 4u);
  // All four arrive (nearly) together and share one core: each sees ~4x
  // the solo 288 ms service time.
  for (const auto& response : sink_.responses) {
    EXPECT_GT(response.timing.cloud, 288.0 * 3.0);
  }
}

// A request costs one sim event per decision: dispatch (admission at the
// back-end), the back-end completion, and delivery.  The routing overhead
// is drawn at submit and the pure-delay legs are folded into the next
// event's time, so each terminal path has an exact event count.
TEST_F(SdnTest, SuccessCostsThreeEvents) {
  backend_.launch(1, exact_type());
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{12}};
  count(sdn);
  sdn.submit(make_request(1), 1, 1.0);
  sim_.run();
  EXPECT_EQ(succeeded(), 1u);
  EXPECT_EQ(sim_.executed_events(), 3u);
}

TEST_F(SdnTest, RejectionWithNoInstanceCostsTwoEvents) {
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{13}};
  count(sdn);
  sdn.submit(make_request(1), 1, 1.0);
  sim_.run();
  EXPECT_EQ(failed(), 1u);
  EXPECT_EQ(sim_.executed_events(), 2u);
}

TEST_F(SdnTest, LocalFallbackWithNoInstanceCostsTwoEvents) {
  fault::fault_program faults;
  faults.enabled = true;
  faults.max_retries = 0;
  faults.request_timeout_ms = 0.0;
  faults.local_exec_wu_per_ms = 1.0;
  sdn_accelerator sdn{sim_, backend_, fixed_link(40.0), &log_, config_,
                      util::rng{14}, faults};
  count(sdn);
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 1.0);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  EXPECT_TRUE(sink_.responses[0].timing.local);
  EXPECT_EQ(succeeded(), 1u);
  EXPECT_EQ(sim_.executed_events(), 2u);
}

TEST_F(SdnTest, ConfigValidation) {
  sdn_config bad;
  bad.routing_overhead_mean_ms = -1.0;
  EXPECT_THROW(sdn_accelerator(sim_, backend_, fixed_link(40.0), &log_, bad,
                               util::rng{1}),
               std::invalid_argument);
}

TEST_F(SdnTest, OneFrontEndPerPoolAtATime) {
  // A pool hands completions to one sink, so a second live front-end on
  // the same pool is refused; once the first is gone, the pool is free.
  {
    sdn_accelerator first{sim_, backend_, fixed_link(40.0), nullptr, config_,
                          util::rng{1}};
    EXPECT_TRUE(backend_.has_completion_sink());
    EXPECT_THROW(sdn_accelerator(sim_, backend_, fixed_link(40.0), nullptr,
                                 config_, util::rng{2}),
                 std::invalid_argument);
  }
  EXPECT_FALSE(backend_.has_completion_sink());
  EXPECT_NO_THROW(sdn_accelerator(sim_, backend_, fixed_link(40.0), nullptr,
                                  config_, util::rng{3}));
}

// The SDN reads the fault program's resilience knobs only while it is
// active: an inactive program with live-looking knobs must run exactly
// like the default one -- no jitter-seed draw, no timer, no retry.
TEST_F(SdnTest, InactiveFaultProgramIsInert) {
  fault::fault_program dormant;
  dormant.max_retries = 5;
  dormant.request_timeout_ms = 1.0;
  dormant.retry_backoff_base_ms = 1.0;
  dormant.local_exec_wu_per_ms = 1.0;
  ASSERT_FALSE(dormant.active());
  config_.routing_overhead_sd_ms = 20.0;  // rng draws show in the timing

  struct run_result {
    std::vector<request_timing> timings;
    std::uint64_t events = 0;
  };
  auto run = [&](const fault::fault_program& faults) {
    sim::simulation sim;
    cloud::backend_pool backend{sim, util::rng{1}};
    backend.launch(1, exact_type());  // group 2 has no instance: rejected
    sdn_accelerator sdn{sim, backend, fixed_link(40.0), nullptr, config_,
                        util::rng{15}, faults};
    test_support::recording_sink sink;
    sdn.set_response_sink(&sink);
    for (user_id u = 0; u < 4; ++u) {
      // 2 s apart, so no two requests share the instance.
      sim.schedule_at(u * 2'000.0, [&, u, r = make_request(u)] {
        sdn.submit(r, u % 2 == 0 ? 1 : 2, 1.0);
      });
    }
    sim.run();
    run_result out;
    for (const auto& response : sink.responses) {
      out.timings.push_back(response.timing);
    }
    out.events = sim.executed_events();
    return out;
  };
  const run_result plain = run(fault::fault_program{});
  const run_result dormant_run = run(dormant);
  // No jitter seed is drawn ahead of the first request: its half-RTT and
  // routing overhead are the stream's first draws.
  util::rng stream{15};
  const double half_rtt = fixed_link(40.0).sample(stream, 0.0) / 2.0;
  ASSERT_FALSE(plain.timings.empty());
  EXPECT_EQ(plain.timings[0].mobile_to_front, half_rtt);
  EXPECT_EQ(plain.timings[0].routing,
            std::max(stream.normal(150.0, 20.0), 5.0));
  // Four submit events, then two successes at three events each and two
  // rejections at two each: a timer or a retry would add events.
  EXPECT_EQ(plain.events, 14u);
  EXPECT_EQ(dormant_run.events, plain.events);
  ASSERT_EQ(plain.timings.size(), 4u);
  ASSERT_EQ(dormant_run.timings.size(), plain.timings.size());
  for (std::size_t i = 0; i < plain.timings.size(); ++i) {
    const request_timing& a = plain.timings[i];
    const request_timing& b = dormant_run.timings[i];
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.local, b.local) << i;
    EXPECT_EQ(a.mobile_to_front, b.mobile_to_front) << i;
    EXPECT_EQ(a.routing, b.routing) << i;
    EXPECT_EQ(a.cloud, b.cloud) << i;
    EXPECT_EQ(a.back_to_front, b.back_to_front) << i;
  }
}

// An active program is checked by fault::validate's rules at construction.
TEST_F(SdnTest, ActiveFaultProgramIsValidated) {
  fault::fault_program negative_timeout;
  negative_timeout.enabled = true;
  negative_timeout.request_timeout_ms = -1.0;
  fault::fault_program cap_below_base;
  cap_below_base.enabled = true;
  cap_below_base.retry_backoff_base_ms = 500.0;
  cap_below_base.retry_backoff_cap_ms = 100.0;
  fault::fault_program stalled_fallback;
  stalled_fallback.enabled = true;
  stalled_fallback.local_exec_wu_per_ms = 0.0;
  for (const fault::fault_program* bad :
       {&negative_timeout, &cap_below_base, &stalled_fallback}) {
    EXPECT_THROW(sdn_accelerator(sim_, backend_, fixed_link(40.0), &log_,
                                 config_, util::rng{1}, *bad),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace mca::core
