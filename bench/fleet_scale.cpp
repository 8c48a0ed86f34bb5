// fleet_scale — runs the sharded fleet once and writes its CI artifacts.
//
// Drives the fleet-scale scenario (500k users over 16 shards; --smoke:
// 40k users over 4 shards) through one fleet::run_fleet call on a default
// pool, prints one line with the request count, acceptance and the
// aggregate / obs / timeline / alert fingerprints, and writes the
// artifacts CI uploads.  It gates nothing but those writes: determinism,
// observability and fault invariants are asserted by ctest (test_fleet,
// test_obs, test_obs_timeline, test_fault_injection) and by mca_bench's
// checks, and mca_bench (mca_bench/README.md) owns all timing.
//
// Usage:
//   fleet_scale [--smoke] [--faults] [--trace PATH] [--trace-slots A:B]
//               [--health PATH]
//
// --faults runs the scenario under its fault program instead (spot
// preemption hazards, a region outage on group 2 strictly inside slot 1,
// cold starts, and the timeout/retry/local-fallback path).  --trace
// attaches the span tracer and writes Chrome trace-event JSON (open in
// Perfetto / chrome://tracing): slot rounds, shard advances, coordinator
// solves, sampled request lifecycles and pool idle gaps, plus post-run
// lanes on the simulated-time process for the tail exemplars, the SLO
// alert intervals and, with --faults, the fault windows (one span per
// outage, one marker per strike).  --trace-slots A:B keeps only the spans
// overlapping provisioning slots A..B (inclusive).  --health writes the
// plain-text fleet health report (per-slot timeline table, alert event
// log, slowest exemplar).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "fault/fault_program.h"
#include "fleet/fleet_runner.h"
#include "obs/alerts.h"
#include "obs/exemplar.h"
#include "obs/health.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "tasks/task.h"

namespace {

using namespace mca;

/// The fleet-scale scenario: a large population issuing sparse Poisson
/// traffic against four acceleration groups backed by wide EC2 tiers, no
/// induced background load (events spent on foreground scale instead),
/// and four provisioning slots over the 1-hour horizon.
exp::scenario_spec fleet_scale_spec(bool smoke) {
  exp::scenario_spec spec;
  spec.name = "fleet_scale";
  spec.base_seed = 500'000;
  spec.user_count = smoke ? 40'000 : 500'000;
  spec.duration = util::hours(1.0);
  spec.slot_length = spec.duration / 4.0;
  spec.tasks = exp::task_mix::static_minimax;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.0005;  // ~1.8 requests per user-hour
  spec.background_requests_per_burst = 0;
  spec.promotion_probability = 1.0 / 50.0;
  // Four acceleration groups, 2-3 allocatable tiers each: wide enough that
  // the per-slot ILP actually branches, wide tiers keep the fleet in the
  // hundreds of instances at 500k users (capacities are users-per-instance
  // under the response bound).
  spec.groups = {
      {1, "t2.medium", 3, 280.0},    {1, "t2.large", 3, 600.0},
      {1, "m4.4xlarge", 0, 2400.0},  {2, "t2.large", 1, 500.0},
      {2, "m4.4xlarge", 1, 1600.0},  {2, "m4.10xlarge", 0, 4000.0},
      {3, "m4.4xlarge", 1, 1200.0},  {3, "m4.10xlarge", 0, 2400.0},
      {3, "c4.8xlarge", 0, 2000.0},  {4, "m4.10xlarge", 1, 2000.0},
      {4, "c4.8xlarge", 0, 1800.0},
  };
  spec.max_total_instances = 4096;
  spec.fleet_max_total_instances = 4096;
  spec.fleet_shards = smoke ? 4 : 16;
  return spec;
}

/// The p99 ceiling of fleet_objectives.
constexpr double kP99CeilingMs = 5'000.0;

/// The stock fleet SLO objectives evaluated over the merged timeline:
/// generous production-style ceilings that only the --faults outage
/// breaches.
std::vector<obs::slo_objective> fleet_objectives(std::size_t group_count) {
  return obs::default_fleet_objectives(group_count, kP99CeilingMs,
                                       /*error_budget=*/0.10);
}

/// The outage victim of --faults (group id == SLO histogram index; group
/// 2 is the mid-tier t2.large/m4.4xlarge/m4.10xlarge band).
constexpr std::uint32_t kOutageGroup = 2;

/// The fleet scenario under fault injection: modest spot hazards on groups
/// 1, 3 and 4, one region outage on group 2 strictly inside provisioning
/// slot 1 — both edges land mid-round, so the recovery exercises the
/// coordinator's off-cycle re-aim — plus cold starts and the full
/// resilience path (per-request timeout, capped backoff retries, local
/// fallback).
exp::scenario_spec faulted_fleet_spec(const exp::scenario_spec& base) {
  exp::scenario_spec spec = base;
  spec.name = "fleet_scale_faults";
  spec.faults.enabled = true;
  // No spot hazard on the outage group: its availability is driven by the
  // outage window alone, so its p99 breach -> recover stays crisp (a
  // post-recovery strike would push a handful of ~56 s local fallbacks
  // into the recovered window and its tail quantile).
  spec.faults.preempt_hazard_per_hour = {0.0, 6.0, 0.0, 6.0, 6.0};
  spec.faults.outages = {
      {kOutageGroup, spec.slot_length * 1.05, spec.slot_length * 1.9}};
  spec.faults.cold_start_mean_ms = 2'000.0;
  spec.faults.max_retries = 2;
  spec.faults.request_timeout_ms = 30'000.0;
  spec.faults.retry_backoff_base_ms = 100.0;
  spec.faults.retry_backoff_cap_ms = 1'000.0;
  spec.faults.local_fallback = true;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const bool with_faults = bench::has_flag(argc, argv, "--faults");
  const auto trace_path = bench::flag_value(argc, argv, "--trace");
  const auto trace_slots = bench::flag_value(argc, argv, "--trace-slots");
  const auto health_path = bench::flag_value(argc, argv, "--health");

  const exp::scenario_spec base = fleet_scale_spec(smoke);
  const exp::scenario_spec spec =
      with_faults ? faulted_fleet_spec(base) : base;

  obs::trace_filter slot_filter;
  if (trace_slots) {
    unsigned long long a = 0;
    unsigned long long b = 0;
    if (std::sscanf(trace_slots->c_str(), "%llu:%llu", &a, &b) != 2 ||
        a > b) {
      std::fprintf(stderr,
                   "fleet_scale: --trace-slots needs A:B with A <= B, "
                   "got '%s'\n",
                   trace_slots->c_str());
      return 2;
    }
    // Simulated extent of slots A..B inclusive — the window trace-stamped
    // spans must overlap to survive the filter.
    slot_filter.slot_begin = a;
    slot_filter.slot_end = b;
    slot_filter.sim_begin_ms = spec.slot_length * static_cast<double>(a);
    slot_filter.sim_end_ms = spec.slot_length * static_cast<double>(b + 1);
  }

  // The tracer outlives the pool: workers record idle spans until joined.
  const std::size_t workers = exp::thread_pool::hardware_workers();
  std::optional<obs::tracer> tracer;
  fleet::fleet_options options;
  options.shards = spec.fleet_shards;
  if (trace_path) {
    tracer.emplace(
        obs::tracer::options{spec.fleet_shards + 1 + workers, 4096});
    options.tracer = &*tracer;
    // Sample densely enough that even the smoke population produces
    // request-lifecycle spans.
    options.trace_sample_every = smoke ? 64 : 1024;
  }
  tasks::task_pool task_pool;
  exp::thread_pool pool{workers};
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, task_pool, pool);

  const obs::alert_report alerts = obs::evaluate_alerts(
      result.timeline, fleet_objectives(result.timeline.group_count()));
  std::printf(
      "%s: requests %zu   acceptance %.1f%%   fingerprint %016llx   "
      "obs %016llx   timeline %016llx   alerts %016llx\n",
      spec.name.c_str(), result.aggregate.requests,
      result.aggregate.acceptance_rate() * 100.0,
      static_cast<unsigned long long>(result.fingerprint()),
      static_cast<unsigned long long>(result.observability.fingerprint()),
      static_cast<unsigned long long>(result.timeline.fingerprint()),
      static_cast<unsigned long long>(alerts.fingerprint()));

  bench::check_list checks;
  if (health_path) {
    checks.expect(obs::write_health_report(*health_path, result.timeline,
                                           alerts, result.exemplars),
                  "fleet health report written", health_path->c_str());
  }
  if (trace_path) {
    std::vector<std::string> ring_names;
    for (std::size_t k = 0; k < spec.fleet_shards; ++k) {
      ring_names.push_back("shard " + std::to_string(k));
    }
    ring_names.push_back("coordinator");
    for (std::size_t w = 0; w < workers; ++w) {
      ring_names.push_back("pool worker " + std::to_string(w));
    }
    std::vector<obs::trace_lane> lanes;
    lanes.push_back({"tail exemplars", obs::exemplar_spans(result.exemplars)});
    lanes.push_back(
        {"slo alerts", obs::alert_spans(alerts, result.timeline)});
    if (with_faults) {
      lanes.push_back(
          {"fault windows",
           fault::fault_spans(spec.faults,
                              fault::make_preemption_schedule(
                                  spec.faults, spec.duration,
                                  spec.base_seed))});
    }
    checks.expect(tracer->export_chrome_trace(
                      *trace_path, ring_names, lanes,
                      trace_slots ? &slot_filter : nullptr),
                  "Chrome trace written", trace_path->c_str());
  }
  return checks.finish("fleet_scale");
}
