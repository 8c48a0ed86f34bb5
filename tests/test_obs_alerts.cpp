// Deterministic SLO burn-rate alerting: multiwindow fire/clear semantics
// over synthetic timelines (golden slot indices under fixed inputs), the
// long-window guard against one-bad-slot pages, error-budget burn rates,
// alert spans for the trace lane, the plain-text health report, and a
// fixed-seed fleet golden — tight objectives fire at slot 0, loose ones
// never fire, and evaluation reproduces bit-identically.
#include "obs/alerts.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "obs/health.h"
#include "tasks/task.h"

namespace mca::obs {
namespace {

constexpr double kSlotMs = 1'000.0;

/// Closes one single-group window holding `good` 100 ms responses and
/// `bad` 6000 ms responses (plus matching request/failure counters).
void close_window(registry& reg, timeline& tl, std::uint64_t slot,
                  std::size_t good, std::size_t bad,
                  std::uint64_t failures = 0) {
  for (std::size_t i = 0; i < good; ++i) reg.observe_response(0, 100.0);
  for (std::size_t i = 0; i < bad; ++i) reg.observe_response(0, 6'000.0);
  reg.add(counter::sdn_requests, good + bad + failures);
  if (failures > 0) reg.add(counter::sdn_failures, failures);
  tl.snapshot(reg, slot, kSlotMs * static_cast<double>(slot + 1));
}

slo_objective latency_objective(double threshold_ms, std::size_t short_windows,
                                std::size_t long_windows) {
  slo_objective obj;
  obj.name = "p99_ceiling";
  obj.kind = alert_kind::latency_p99;
  obj.threshold = threshold_ms;
  obj.short_windows = short_windows;
  obj.long_windows = long_windows;
  return obj;
}

TEST(ObsAlerts, KindNamesAreStable) {
  EXPECT_STREQ(alert_kind_name(alert_kind::latency_p99), "latency_p99");
  EXPECT_STREQ(alert_kind_name(alert_kind::error_rate), "error_rate");
}

TEST(ObsAlerts, FiresAndClearsAtGoldenSlots) {
  registry reg;
  reg.resize_groups(1);
  timeline tl;
  tl.reset(6, 1);
  close_window(reg, tl, 0, 50, 0);   // healthy
  close_window(reg, tl, 1, 0, 50);   // breach begins
  close_window(reg, tl, 2, 0, 50);   // sustained
  close_window(reg, tl, 3, 50, 0);   // recovered
  close_window(reg, tl, 4, 50, 0);
  close_window(reg, tl, 5, 50, 0);

  const std::vector<slo_objective> objectives{
      latency_objective(1'000.0, 1, 2)};
  const alert_report report = evaluate_alerts(tl, objectives);
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.fires, 1u);
  EXPECT_EQ(report.clears, 1u);
  // Golden edges: fire when slot 1 closes, clear when slot 3 closes.
  EXPECT_TRUE(report.events[0].fired);
  EXPECT_EQ(report.events[0].slot, 1u);
  EXPECT_DOUBLE_EQ(report.events[0].sim_ms, 2'000.0);
  EXPECT_GT(report.events[0].short_value, 1'000.0);
  EXPECT_FALSE(report.events[1].fired);
  EXPECT_EQ(report.events[1].slot, 3u);
  EXPECT_FALSE(report.active[0]);

  // Same timeline, same objectives → the same report, bit for bit.
  EXPECT_EQ(report.fingerprint(),
            evaluate_alerts(tl, objectives).fingerprint());
}

TEST(ObsAlerts, LongWindowGuardsAgainstOneBadSlot) {
  // One sparse bad slot after a dense healthy one: the short window
  // breaches but the long window's merged p99 stays low — no page.
  registry reg;
  reg.resize_groups(1);
  timeline tl;
  tl.reset(3, 1);
  close_window(reg, tl, 0, 1'000, 0);
  close_window(reg, tl, 1, 0, 5);
  close_window(reg, tl, 2, 1'000, 0);

  const alert_report report =
      evaluate_alerts(tl, {latency_objective(1'000.0, 1, 2)});
  EXPECT_EQ(report.fires, 0u);
  EXPECT_TRUE(report.events.empty());

  // Shrinking the long window to 1 removes the guard.
  const alert_report paged =
      evaluate_alerts(tl, {latency_objective(1'000.0, 1, 1)});
  EXPECT_EQ(paged.fires, 1u);
  EXPECT_EQ(paged.events[0].slot, 1u);
}

TEST(ObsAlerts, ErrorRateBurnsAgainstScaledBudget) {
  registry reg;
  reg.resize_groups(1);
  timeline tl;
  tl.reset(3, 1);
  close_window(reg, tl, 0, 80, 0, 20);  // 20% failures
  close_window(reg, tl, 1, 100, 0, 0);  // clean
  close_window(reg, tl, 2, 0, 0, 0);    // idle: burns no budget

  slo_objective obj;
  obj.name = "error_budget";
  obj.kind = alert_kind::error_rate;
  obj.threshold = 0.05;
  obj.burn_rate = 2.0;  // effective threshold 0.10
  obj.short_windows = 1;
  obj.long_windows = 1;
  const alert_report report = evaluate_alerts(tl, {obj});
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_TRUE(report.events[0].fired);
  EXPECT_EQ(report.events[0].slot, 0u);
  EXPECT_DOUBLE_EQ(report.events[0].short_value, 0.2);
  EXPECT_FALSE(report.events[1].fired);
  EXPECT_EQ(report.events[1].slot, 1u);
  // The idle window produced no further edges.
  EXPECT_FALSE(report.active[0]);
}

TEST(ObsAlerts, DefaultFleetObjectivesCoverFleetAndEveryGroup) {
  const std::vector<slo_objective> objectives =
      default_fleet_objectives(3, 2'500.0, 0.02);
  ASSERT_EQ(objectives.size(), 5u);
  EXPECT_EQ(objectives[0].name, "fleet_p99_latency");
  EXPECT_EQ(objectives[0].kind, alert_kind::latency_p99);
  EXPECT_EQ(objectives[0].group, kAllGroups);
  EXPECT_EQ(objectives[1].name, "fleet_error_budget");
  EXPECT_EQ(objectives[1].kind, alert_kind::error_rate);
  EXPECT_DOUBLE_EQ(objectives[1].threshold, 0.02);
  EXPECT_EQ(objectives[2].name, "group0_p99_latency");
  EXPECT_EQ(objectives[2].group, 0u);
  EXPECT_EQ(objectives[4].group, 2u);
}

TEST(ObsAlerts, SpansCoverFireToClearAndActiveToHorizon) {
  registry reg;
  reg.resize_groups(1);
  timeline tl;
  tl.reset(4, 1);
  close_window(reg, tl, 0, 50, 0);
  close_window(reg, tl, 1, 0, 50);  // fire (short=long=1)
  close_window(reg, tl, 2, 50, 0);  // clear
  close_window(reg, tl, 3, 0, 50);  // fire again, still active at end

  const alert_report report =
      evaluate_alerts(tl, {latency_objective(1'000.0, 1, 1)});
  ASSERT_EQ(report.fires, 2u);
  ASSERT_EQ(report.clears, 1u);
  const std::vector<span_record> spans = alert_spans(report, tl);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, span_kind::slo_alert);
  EXPECT_DOUBLE_EQ(spans[0].sim_start_ms, 2'000.0);  // slot 1 close
  EXPECT_DOUBLE_EQ(spans[0].sim_dur_ms, 1'000.0);    // to slot 2 close
  EXPECT_EQ(spans[0].arg_b, 1u);
  // The still-active alert extends to the timeline horizon.
  EXPECT_DOUBLE_EQ(spans[1].sim_start_ms, 4'000.0);
  EXPECT_DOUBLE_EQ(spans[1].sim_dur_ms, 0.0);
  EXPECT_EQ(spans[1].arg_b, 3u);
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(ObsAlerts, HealthReportListsWindowsEventsAndObjectives) {
  registry reg;
  reg.resize_groups(1);
  timeline tl;
  tl.reset(3, 1);
  close_window(reg, tl, 0, 50, 0);
  close_window(reg, tl, 1, 0, 50);
  close_window(reg, tl, 2, 50, 0);
  const alert_report report =
      evaluate_alerts(tl, {latency_objective(1'000.0, 1, 1)});

  exemplar_record slowest;
  slowest.response_ms = 6'000.0;
  slowest.request = 123;
  slowest.slot = 1;

  const std::string path = "obs_alerts_health.txt";
  ASSERT_TRUE(write_health_report(path, tl, report, {slowest}));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("fleet health report"), std::string::npos);
  EXPECT_NE(text.find("timeline: 3 windows"), std::string::npos);
  EXPECT_NE(text.find("FIRE"), std::string::npos);
  EXPECT_NE(text.find("CLEAR"), std::string::npos);
  EXPECT_NE(text.find("p99_ceiling"), std::string::npos);
  EXPECT_NE(text.find("slowest overall: request 123"), std::string::npos);
}

// ---------------------------------------------------------------------------
// fleet integration: fixed-seed golden

/// Small fleet scenario crossing several slot boundaries (mirrors
/// test_obs's obs_fleet_scenario).
exp::scenario_spec alerts_fleet_scenario() {
  exp::scenario_spec spec;
  spec.name = "obs_alerts_fleet";
  spec.base_seed = 90210;
  spec.user_count = 48;
  spec.duration = util::minutes(30.0);
  spec.slot_length = util::minutes(10.0);
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.05;
  spec.background_requests_per_burst = 0;
  spec.groups = {{1, "t2.nano", 1, 4.0}, {2, "t2.large", 1, 30.0}};
  spec.fleet_max_total_instances = 40;
  spec.fleet_shards = 4;
  return spec;
}

TEST(ObsAlertsFleet, TightObjectivesFireAtSlotZeroLooseNeverFire) {
  const exp::scenario_spec spec = alerts_fleet_scenario();
  const tasks::task_pool task_pool;
  exp::thread_pool pool{2};
  fleet::fleet_options options;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, task_pool, pool);
  ASSERT_TRUE(result.timeline.enabled());

  // A 1 ms fleet p99 ceiling is below any real response: it must fire
  // the moment the first window closes and never clear.
  std::vector<slo_objective> tight{latency_objective(1.0, 1, 1)};
  const alert_report fired = evaluate_alerts(result.timeline, tight);
  ASSERT_GE(fired.events.size(), 1u);
  EXPECT_TRUE(fired.events[0].fired);
  EXPECT_EQ(fired.events[0].slot, 0u);
  EXPECT_EQ(fired.clears, 0u);
  EXPECT_TRUE(fired.active[0]);

  // An unreachable ceiling never fires.
  std::vector<slo_objective> loose{latency_objective(1e9, 1, 1)};
  const alert_report quiet = evaluate_alerts(result.timeline, loose);
  EXPECT_TRUE(quiet.events.empty());
  EXPECT_EQ(quiet.fires, 0u);

  // Evaluation over the same merged timeline is bit-stable — run it at
  // another pool size and compare the full event golden.
  exp::thread_pool other_pool{4};
  const fleet::fleet_result other =
      fleet::run_fleet(spec, options, task_pool, other_pool);
  const alert_report refired = evaluate_alerts(other.timeline, tight);
  EXPECT_EQ(refired.fingerprint(), fired.fingerprint());
  ASSERT_EQ(refired.events.size(), fired.events.size());
  for (std::size_t i = 0; i < fired.events.size(); ++i) {
    EXPECT_EQ(refired.events[i].slot, fired.events[i].slot) << i;
    EXPECT_EQ(refired.events[i].fired, fired.events[i].fired) << i;
    EXPECT_DOUBLE_EQ(refired.events[i].short_value,
                     fired.events[i].short_value)
        << i;
  }
}

TEST(ObsAlertsFleet, HealthReportIdenticalAcrossPoolSizes) {
  // The rendered report — exemplar request ids included — depends only on
  // the spec, not on the pool size or on earlier runs in the process.
  const exp::scenario_spec spec = alerts_fleet_scenario();
  const tasks::task_pool task_pool;
  fleet::fleet_options options;
  std::vector<std::string> reports;
  for (const std::size_t jobs : {1u, 4u}) {
    exp::thread_pool pool{jobs};
    const fleet::fleet_result result =
        fleet::run_fleet(spec, options, task_pool, pool);
    const alert_report alerts = evaluate_alerts(
        result.timeline, {latency_objective(1'000.0, 1, 1)});
    const std::string path =
        "obs_alerts_fleet_health_" + std::to_string(jobs) + ".txt";
    ASSERT_TRUE(
        write_health_report(path, result.timeline, alerts, result.exemplars));
    reports.push_back(slurp(path));
    std::remove(path.c_str());
  }
  EXPECT_NE(reports[0].find("slowest overall: request"), std::string::npos);
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace mca::obs
