// Fault-injection subsystem tests: schedule determinism and sharding
// invariance, program validation, the SDN retry/backoff/fallback path,
// preemption failure notices, fleet-level zero-loss accounting with
// faults enabled across thread counts, and the outage window's SLO breach
// and recovery.
#include "fault/fault_program.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/backend_pool.h"
#include "core/sdn_accelerator.h"
#include "exp/scenario.h"
#include "fleet/fleet_runner.h"
#include "net/operators.h"
#include "obs/alerts.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "recording_sink.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/sim_time.h"

namespace mca {
namespace {

// ---------------------------------------------------------------------------
// Schedule expansion: purity, ordering, shard-slice partition.
// ---------------------------------------------------------------------------

fault::fault_program hazard_program(std::vector<double> hazards) {
  fault::fault_program program;
  program.enabled = true;
  program.preempt_hazard_per_hour = std::move(hazards);
  return program;
}

TEST(FaultSchedule, PureFunctionOfProgramHorizonSeed) {
  const auto program = hazard_program({0.0, 30.0, 12.0});
  const auto a =
      fault::make_preemption_schedule(program, util::hours(4.0), 99);
  const auto b =
      fault::make_preemption_schedule(program, util::hours(4.0), 99);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].group, b[i].group);
    EXPECT_EQ(a[i].ordinal, b[i].ordinal);
    EXPECT_EQ(a[i].seq, i);  // seq is the sorted index
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);  // time-sorted
    }
  }
  // A different seed is a different fault environment.
  const auto c =
      fault::make_preemption_schedule(program, util::hours(4.0), 100);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c[i].at != a[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, GroupStreamsAreIndependent) {
  // Group 1's strikes must not depend on which other groups carry
  // hazards: each group draws from its own counter-split stream.
  const auto narrow = fault::make_preemption_schedule(
      hazard_program({0.0, 20.0, 0.0}), util::hours(2.0), 7);
  const auto wide = fault::make_preemption_schedule(
      hazard_program({15.0, 20.0, 40.0}), util::hours(2.0), 7);
  std::vector<fault::preemption_event> wide_g1;
  for (const auto& ev : wide) {
    if (ev.group == 1) wide_g1.push_back(ev);
  }
  ASSERT_EQ(narrow.size(), wide_g1.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_EQ(narrow[i].at, wide_g1[i].at);
    EXPECT_EQ(narrow[i].ordinal, wide_g1[i].ordinal);
  }
}

TEST(FaultSchedule, DisabledOrZeroHazardDrawsNothing) {
  fault::fault_program off = hazard_program({50.0, 50.0});
  off.enabled = false;
  EXPECT_TRUE(
      fault::make_preemption_schedule(off, util::hours(8.0), 1).empty());
  EXPECT_TRUE(fault::make_preemption_schedule(hazard_program({0.0, 0.0}),
                                              util::hours(8.0), 1)
                  .empty());
  EXPECT_TRUE(fault::make_preemption_schedule(hazard_program({50.0}), 0.0, 1)
                  .empty());
  // Strike counts follow the hazard: at a fixed seed, doubling every
  // group's rate draws more strikes, and a zero rate draws none.
  const auto strikes = [](double multiplier) {
    return fault::make_preemption_schedule(
               hazard_program({6.0 * multiplier, 6.0 * multiplier}),
               util::hours(8.0), 500'000)
        .size();
  };
  EXPECT_GT(strikes(2.0), strikes(1.0));
  EXPECT_GT(strikes(1.0), strikes(0.0));
}

TEST(FaultSchedule, ShardSlicesPartitionTheMonolithSchedule) {
  // seq % shard_count slicing must reproduce the monolith's global fault
  // set exactly, for any shard count: same strikes, each on exactly one
  // shard.
  const auto full = fault::make_preemption_schedule(
      hazard_program({10.0, 25.0, 5.0}), util::hours(6.0), 4242);
  ASSERT_GT(full.size(), 10u);
  for (const std::size_t shard_count : {1u, 2u, 3u, 5u}) {
    std::vector<fault::preemption_event> merged;
    for (std::size_t k = 0; k < shard_count; ++k) {
      for (const auto& ev : full) {
        if (ev.seq % shard_count == k) merged.push_back(ev);
      }
    }
    ASSERT_EQ(merged.size(), full.size()) << shard_count << " shards";
    std::sort(merged.begin(), merged.end(),
              [](const fault::preemption_event& a,
                 const fault::preemption_event& b) { return a.seq < b.seq; });
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(merged[i].at, full[i].at);
      EXPECT_EQ(merged[i].group, full[i].group);
      EXPECT_EQ(merged[i].ordinal, full[i].ordinal);
    }
  }
}

// ---------------------------------------------------------------------------
// Program validation: malformed programs rejected with actionable text.
// ---------------------------------------------------------------------------

std::string rejection_of(const fault::fault_program& program,
                         util::time_ms horizon) {
  try {
    fault::validate(program, horizon, "test");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(FaultValidate, RejectsNegativeHazard) {
  auto program = hazard_program({1.0, -3.0});
  const std::string what = rejection_of(program, util::hours(1.0));
  EXPECT_NE(what.find("preempt_hazard_per_hour[1]"), std::string::npos)
      << what;
  EXPECT_NE(what.find("negative"), std::string::npos) << what;
}

TEST(FaultValidate, RejectsOutageOutsideHorizonOrInverted) {
  fault::fault_program program;
  program.enabled = true;
  program.outages = {{1, util::minutes(50.0), util::minutes(70.0)}};
  std::string what = rejection_of(program, util::hours(1.0));
  EXPECT_NE(what.find("outside the scenario duration"), std::string::npos)
      << what;

  program.outages = {{1, util::minutes(20.0), util::minutes(10.0)}};
  what = rejection_of(program, util::hours(1.0));
  EXPECT_NE(what.find("empty or inverted"), std::string::npos) << what;
}

TEST(FaultValidate, RejectsZeroRetriesWithoutFallback) {
  fault::fault_program program;
  program.enabled = true;
  program.max_retries = 0;
  program.local_fallback = false;
  const std::string what = rejection_of(program, util::hours(1.0));
  EXPECT_NE(what.find("max_retries is 0 with local_fallback disabled"),
            std::string::npos)
      << what;
}

TEST(FaultValidate, RejectsBackoffCapBelowBase) {
  fault::fault_program program;
  program.enabled = true;
  program.retry_backoff_base_ms = 500.0;
  program.retry_backoff_cap_ms = 100.0;
  const std::string what = rejection_of(program, util::hours(1.0));
  EXPECT_NE(what.find("retry_backoff_cap_ms"), std::string::npos) << what;
}

TEST(FaultValidate, DisabledProgramIsNeverRejected) {
  fault::fault_program program = hazard_program({-1.0});
  program.enabled = false;
  program.outages = {{0, util::hours(5.0), util::hours(2.0)}};
  EXPECT_NO_THROW(fault::validate(program, util::hours(1.0), "test"));
}

TEST(FaultValidate, ScenarioValidationNamesTheScenario) {
  exp::scenario_spec spec;
  spec.name = "broken_faults";
  spec.faults.enabled = true;
  spec.faults.outages = {{1, 0.0, spec.duration * 2.0}};
  try {
    exp::validate(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("broken_faults"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Trace-lane spans.
// ---------------------------------------------------------------------------

TEST(FaultSpans, OneSpanPerOutageOneMarkerPerStrike) {
  fault::fault_program program = hazard_program({0.0, 40.0});
  program.outages = {{2, util::minutes(10.0), util::minutes(20.0)}};
  const auto schedule =
      fault::make_preemption_schedule(program, util::hours(1.0), 11);
  ASSERT_GT(schedule.size(), 0u);
  const auto spans = fault::fault_spans(program, schedule);
  ASSERT_EQ(spans.size(), 1 + schedule.size());
  EXPECT_EQ(spans[0].kind, obs::span_kind::fault_window);
  EXPECT_EQ(spans[0].arg_a, 2u);
  EXPECT_EQ(spans[0].arg_b,
            static_cast<std::uint64_t>(fault::fault_kind::outage_begin));
  EXPECT_DOUBLE_EQ(spans[0].sim_start_ms, util::minutes(10.0));
  EXPECT_DOUBLE_EQ(spans[0].sim_dur_ms, util::minutes(10.0));
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].kind, obs::span_kind::fault_window);
    EXPECT_EQ(spans[i].arg_b,
              static_cast<std::uint64_t>(fault::fault_kind::preemption));
    EXPECT_DOUBLE_EQ(spans[i].sim_dur_ms, 0.0);
    EXPECT_DOUBLE_EQ(spans[i].sim_start_ms, schedule[i - 1].at);
  }
}

// ---------------------------------------------------------------------------
// Scenario wiring: the program rides on the system config.
// ---------------------------------------------------------------------------

TEST(FaultScenario, ProgramMapsOntoSystemConfig) {
  tasks::task_pool pool;
  exp::scenario_spec spec;
  spec.user_count = 4;
  spec.duration = util::hours(1.0);
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 20.0, 20.0, 20.0};
  spec.faults.max_retries = 3;
  spec.faults.request_timeout_ms = 7'500.0;
  spec.faults.retry_backoff_base_ms = 50.0;
  spec.faults.retry_backoff_cap_ms = 800.0;
  spec.faults.local_fallback = true;
  spec.faults.local_exec_wu_per_ms = 0.25;
  spec.faults.cold_start_mean_ms = 1'234.0;

  util::rng stream{1};
  const core::system_config config =
      exp::make_system_config(spec, pool, stream);
  EXPECT_TRUE(config.faults.active());
  EXPECT_GT(config.preemption_schedule.size(), 0u);
  // The schedule is the spec's expansion, shared by every replication.
  const auto expected = fault::make_preemption_schedule(
      spec.faults, spec.duration, spec.base_seed);
  ASSERT_EQ(config.preemption_schedule.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(config.preemption_schedule[i].at, expected[i].at);
  }
}

// ---------------------------------------------------------------------------
// SDN resilience: timeout -> retry -> fallback, failure notices, and
// deterministic backoff.
// ---------------------------------------------------------------------------

net::rtt_model fixed_link(double rtt_ms) {
  net::rtt_model_params p;
  p.log_mu = std::log(rtt_ms);
  p.log_sigma = 1e-9;
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

class SdnResilienceTest : public ::testing::Test {
 protected:
  SdnResilienceTest() {
    config_.routing_overhead_mean_ms = 150.0;
    config_.routing_overhead_sd_ms = 0.0;
    config_.backend_one_way_ms = 3.0;
    // Active with every resilience knob off; each test turns on its own.
    faults_.enabled = true;
    faults_.max_retries = 0;
    faults_.request_timeout_ms = 0.0;
    faults_.local_fallback = false;
  }

  /// Points `sdn`'s request counters at the fixture's registry.
  void count(core::sdn_accelerator& sdn) {
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
  core::sdn_config config_;
  fault::fault_program faults_;
  test_support::recording_sink sink_;
  obs::registry obs_;
  request_id next_id_ = 0;
};

TEST_F(SdnResilienceTest, TimeoutRetriesThenFallsBackLocally) {
  // Service takes ~288 ms on a 1 wu/ms core; a 100 ms timeout fires on
  // both attempts, after which the device runs the task itself.
  backend_.launch(1, exact_type());
  faults_.max_retries = 1;
  faults_.request_timeout_ms = 100.0;
  faults_.retry_backoff_base_ms = 10.0;
  faults_.retry_backoff_cap_ms = 20.0;
  faults_.local_fallback = true;
  faults_.local_exec_wu_per_ms = 1.0;
  core::sdn_accelerator sdn{sim_,    backend_,     fixed_link(40.0), &log_,
                            config_, util::rng{2}, faults_};
  count(sdn);
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 0.9);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  const core::request_timing& observed = sink_.responses[0].timing;
  EXPECT_TRUE(observed.success);
  EXPECT_TRUE(observed.local);
  // Local execution of the 280 wu task at 1 wu/ms.
  EXPECT_NEAR(observed.cloud, 280.0, 1e-9);
  // Routing absorbed both timeout windows plus one jittered backoff wait
  // in [5, 15) ms: 150 + 2*100 + backoff.
  EXPECT_GE(observed.routing, 355.0);
  EXPECT_LT(observed.routing, 365.0);
  // The stale backend completions (epoch-orphaned) must not double count.
  EXPECT_EQ(succeeded(), 1u);
  EXPECT_EQ(failed(), 0u);
}

TEST_F(SdnResilienceTest, RetryBudgetExhaustionDeliversFailureNotice) {
  // No instances, one retry, no fallback: the failure notice still pays
  // the return hops and lands at the device.
  faults_.max_retries = 1;
  faults_.retry_backoff_base_ms = 10.0;
  faults_.retry_backoff_cap_ms = 20.0;
  core::sdn_accelerator sdn{sim_,    backend_,     fixed_link(40.0), &log_,
                            config_, util::rng{2}, faults_};
  count(sdn);
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 0.9);
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  const core::request_timing& observed = sink_.responses[0].timing;
  EXPECT_FALSE(observed.success);
  EXPECT_FALSE(observed.local);
  EXPECT_DOUBLE_EQ(observed.cloud, 0.0);
  EXPECT_EQ(failed(), 1u);
  EXPECT_EQ(succeeded(), 0u);
}

TEST_F(SdnResilienceTest, PreemptedInFlightRetriesOnSurvivingInstance) {
  backend_.launch(1, exact_type());
  faults_.max_retries = 2;
  faults_.retry_backoff_base_ms = 10.0;
  faults_.retry_backoff_cap_ms = 20.0;
  core::sdn_accelerator sdn{sim_,    backend_,     fixed_link(40.0), &log_,
                            config_, util::rng{2}, faults_};
  count(sdn);
  sdn.set_response_sink(&sink_);
  sdn.submit(make_request(1), 1, 0.9);
  // Dispatch lands at ~173 ms (20 uplink + 150 routing + 3 internal); at
  // 250 ms the job is mid-service.  A second instance comes up, then the
  // loaded one is spot-killed: the failure must re-dispatch to the
  // survivor and succeed without the fallback.
  sim_.schedule_at(250.0, [&] {
    backend_.launch(1, exact_type());
    const auto strike = backend_.preempt_in(1, 0);
    EXPECT_TRUE(strike.applied);
    EXPECT_EQ(strike.killed, 1u);
  });
  sim_.run();
  ASSERT_EQ(sink_.responses.size(), 1u);
  const core::request_timing& observed = sink_.responses[0].timing;
  EXPECT_TRUE(observed.success);
  EXPECT_FALSE(observed.local);
  EXPECT_NEAR(observed.cloud, 288.0, 1e-6);  // full re-execution
  EXPECT_EQ(succeeded(), 1u);
  EXPECT_EQ(failed(), 0u);
}

TEST_F(SdnResilienceTest, BackoffJitterIsDeterministicPerRequest) {
  faults_.max_retries = 2;
  faults_.local_fallback = true;
  faults_.local_exec_wu_per_ms = 1.0;
  double routing[2] = {0.0, 0.0};
  for (int run = 0; run < 2; ++run) {
    sim::simulation sim;
    cloud::backend_pool backend{sim, util::rng{1}};  // empty group: retries
    core::sdn_accelerator sdn{sim,     backend,      fixed_link(40.0), &log_,
                              config_, util::rng{2}, faults_};
    test_support::recording_sink sink;
    sdn.set_response_sink(&sink);
    workload::offload_request r;
    r.id = 77;
    r.user = 1;
    r.work = pool_.static_minimax_request();
    sdn.submit(r, 1, 0.9);
    sim.run();
    ASSERT_EQ(sink.responses.size(), 1u);
    routing[run] = sink.responses[0].timing.routing;
  }
  EXPECT_GT(routing[0], 150.0);  // backoff waits actually accrued
  EXPECT_EQ(routing[0], routing[1]);  // bit-identical across runs
}

// ---------------------------------------------------------------------------
// Fleet-level: determinism across thread counts, zero-loss accounting,
// outage recovery, and disabled-program inertness.
// ---------------------------------------------------------------------------

exp::scenario_spec tiny_fleet_scenario() {
  exp::scenario_spec spec;
  spec.name = "tiny_fleet_faults";
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

exp::scenario_spec faulted_fleet_scenario() {
  exp::scenario_spec spec = tiny_fleet_scenario();
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 12.0, 12.0};
  // Mid-run outage on the initial group, ending inside the 10..20 min
  // slot so the off-cycle re-aim path runs.
  spec.faults.outages = {{1, util::minutes(12.0), util::minutes(18.0)}};
  spec.faults.cold_start_mean_ms = 1'000.0;
  spec.faults.max_retries = 2;
  spec.faults.request_timeout_ms = 30'000.0;
  spec.faults.retry_backoff_base_ms = 100.0;
  spec.faults.retry_backoff_cap_ms = 1'000.0;
  spec.faults.local_fallback = true;
  return spec;
}

TEST(FaultFleet, FingerprintIdenticalAcrossThreadCounts) {
  tasks::task_pool tasks;
  const auto spec = faulted_fleet_scenario();
  fleet::fleet_options options;
  options.shards = 4;

  fleet::fleet_result results[3];
  const std::size_t thread_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    exp::thread_pool pool{thread_counts[i]};
    results[i] = fleet::run_fleet(spec, options, tasks, pool);
  }
  const auto reference = results[0].fingerprint();
  const auto obs_reference = results[0].observability.fingerprint();
  const auto timeline_reference = results[0].timeline.fingerprint();
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].fingerprint(), reference)
        << "thread count " << thread_counts[i];
    EXPECT_EQ(results[i].observability.fingerprint(), obs_reference)
        << "thread count " << thread_counts[i];
    EXPECT_EQ(results[i].timeline.fingerprint(), timeline_reference)
        << "thread count " << thread_counts[i];
  }
}

TEST(FaultFleet, ZeroLossAccountingAndRecovery) {
  tasks::task_pool tasks;
  exp::thread_pool pool{2};
  const auto spec = faulted_fleet_scenario();
  fleet::fleet_options options;
  options.shards = 2;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, tasks, pool);
  const obs::registry& r = result.observability;

  // The zero-loss invariant: every request that entered the front-end was
  // terminally accounted — delivered as a success (cloud or local
  // fallback) or as an explicit failure notice.  Nothing vanished in a
  // preemption, outage, or timeout.
  const std::uint64_t requests = r.get(obs::counter::sdn_requests);
  const std::uint64_t successes = r.get(obs::counter::sdn_successes);
  const std::uint64_t failures = r.get(obs::counter::sdn_failures);
  EXPECT_GT(requests, 0u);
  EXPECT_EQ(requests, successes + failures);
  EXPECT_LE(r.get(obs::counter::sdn_local_fallbacks), successes);

  // The fault engine actually fired: every shard opened and closed the
  // scheduled outage; the outage forced fallbacks on the drained group.
  EXPECT_EQ(r.get(obs::counter::fault_outages), 2u);
  EXPECT_EQ(r.get(obs::counter::fault_recoveries), 2u);
  EXPECT_GT(r.get(obs::counter::sdn_local_fallbacks) +
                r.get(obs::counter::sdn_retries),
            0u);
  // Cold starts were paid on the initial launches at least.
  EXPECT_GT(r.get(obs::counter::fault_cold_starts), 0u);
  // Preemption strikes only apply when the group has a live member, so
  // 0 < applied <= scheduled; killed jobs were all failure-notified
  // (covered by the zero-loss equation above).
  const auto schedule = fault::make_preemption_schedule(
      spec.faults, spec.duration, spec.base_seed);
  EXPECT_GT(r.get(obs::counter::fault_preemptions), 0u);
  EXPECT_LE(r.get(obs::counter::fault_preemptions), schedule.size());
}

TEST(FaultFleet, OutageWindowBreachesThenRecovers) {
  // The outage on group 1 lies strictly inside slot 1 (10..20 min), so
  // window 1's group-1 p99 carries the retries and ~56 s local fallbacks
  // and blows through the ceiling, while window 2, after the off-cycle
  // re-aim, is back under it.  Group 1 has no spot hazard, so no
  // post-recovery strike pushes a fallback into the recovered window.
  constexpr double kP99CeilingMs = 5'000.0;
  tasks::task_pool tasks;
  exp::thread_pool pool{2};
  auto spec = faulted_fleet_scenario();
  spec.faults.preempt_hazard_per_hour = {0.0, 0.0, 12.0};
  fleet::fleet_options options;
  options.shards = 2;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, tasks, pool);

  const obs::timeline& tl = result.timeline;
  ASSERT_GE(tl.size(), 3u);
  ASSERT_GT(tl.group_count(), 1u);
  util::histogram breached;
  util::histogram recovered;
  tl.window(1).add_slo(1, breached);
  tl.window(2).add_slo(1, recovered);
  ASSERT_GT(breached.total(), 0u);
  ASSERT_GT(recovered.total(), 0u);
  EXPECT_GT(breached.quantile_interpolated(0.99), kP99CeilingMs);
  EXPECT_LT(recovered.quantile_interpolated(0.99), kP99CeilingMs);

  // The group-1 p99 alert fires on the outage window and clears on the
  // next one.
  const obs::alert_report alerts = obs::evaluate_alerts(
      tl, obs::default_fleet_objectives(tl.group_count(), kP99CeilingMs,
                                        0.10));
  std::vector<std::pair<std::uint64_t, bool>> group1_edges;
  for (const obs::alert_event& event : alerts.events) {
    if (alerts.objectives[event.objective].name == "group1_p99_latency") {
      group1_edges.emplace_back(event.slot, event.fired);
    }
  }
  const std::vector<std::pair<std::uint64_t, bool>> expected{{1, true},
                                                             {2, false}};
  EXPECT_EQ(group1_edges, expected);
}

TEST(FaultFleet, DisabledProgramIsByteInert) {
  // A populated-but-disabled fault program must leave the run bit-for-bit
  // identical to a spec that never heard of faults: no rng draws, no
  // events, no counter deltas.
  tasks::task_pool tasks;
  const auto pristine = tiny_fleet_scenario();
  auto disabled = tiny_fleet_scenario();
  disabled.faults = faulted_fleet_scenario().faults;
  disabled.faults.enabled = false;

  fleet::fleet_options options;
  options.shards = 2;
  exp::thread_pool pool{2};
  const auto a = fleet::run_fleet(pristine, options, tasks, pool);
  const auto b = fleet::run_fleet(disabled, options, tasks, pool);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.observability.fingerprint(), b.observability.fingerprint());
  EXPECT_EQ(a.timeline.fingerprint(), b.timeline.fingerprint());
  EXPECT_EQ(b.observability.get(obs::counter::fault_outages), 0u);
  EXPECT_EQ(b.observability.get(obs::counter::sdn_retries), 0u);
}

}  // namespace
}  // namespace mca
