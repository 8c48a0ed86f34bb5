// fleet_scale — the sharded fleet simulator at population scale.
//
// Drives one fleet-sized scenario (default 500k users over 16 shards)
// through fleet::run_fleet at several pool sizes and gates that the merged
// fingerprint is bit-identical at every thread count.  Results land in
// BENCH_fleet.json next to the other BENCH_*.json series.  Timings here
// are advisory; mca_bench (mca_bench/README.md) is the benchmark of
// record for performance claims.
//
// Usage:
//   fleet_scale [--users N] [--shards K] [--slots S] [--jobs a,b,c]
//               [--trials T] [--trace PATH]
//               [--trace-slots A:B] [--health PATH] [--out PATH]
//               [--faults] [--fault-health PATH] [--smoke]
//
// --slots sets how many provisioning slots the 1-hour horizon is cut into
// (slot_length = duration / slots).  --smoke shrinks everything (CI: small
// shard count; the determinism gates stay hard).  Every timed leg runs
// --trials times, interleaved (trial 0 of every leg, then trial 1, ...),
// and the best wall time per leg is reported.  --trace runs
// one additional untimed leg with the span tracer attached and writes
// Chrome trace-event JSON (open in Perfetto / chrome://tracing) covering
// slot rounds, shard advances, coordinator solves/splits, sampled
// request lifecycles, and pool idle gaps — plus two post-run lanes on
// the simulated-time process: the fleet's per-window tail exemplars and
// the SLO alert intervals.  --trace-slots A:B restricts the export to
// the spans overlapping provisioning slots A..B (inclusive), so one bad
// window stays inspectable without the full-trace payload.  --health
// writes the plain-text fleet health report (per-slot timeline table,
// alert event log, slowest exemplar) CI uploads next to the trace.
//
// --faults runs the same scenario again under a fault program (spot
// preemption hazards on every group, a region outage on group 2 strictly
// inside slot 1, cold starts, and the timeout/retry/local-fallback
// resilience path), once per pool size, with its own hard gates:
// thread-count-independent faulted fingerprints, the zero-loss equation
// (requests == successes + failures), the outage window's group p99
// breaching the SLO ceiling then recovering (with the matching alert
// fire + clear), and a disabled-program replay that must reproduce the
// fault-free fingerprints bit for bit.  A hazard-rate series
// (multipliers 0/1/2) lands in the JSON; with --trace, a second traced
// export gains a "fault windows" lane (one span per outage, one marker
// per strike); --fault-health writes the fault leg's health report.
//
// The time-resolved layer gets its own hard gates: the merged
// per-slot timeline fingerprint must be bit-identical across thread
// counts, trials, AND the traced leg (trace-dependent counters are
// excluded from it by construction), the window count must equal
// slots + 1 (the drain tail), the fleet exemplar set must be non-empty
// and bounded by top_k per window, and SLO alert evaluation over the
// merged timeline must reproduce bit-identically.  The merged
// observability registry (counters, series, per-group SLO percentiles) is
// emitted too, with its own thread-count-independent fingerprint.
#include <algorithm>
#include <cstdio>
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
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "tasks/task.h"

namespace {

using namespace mca;

/// The fleet-scale scenario: a large population issuing sparse Poisson
/// traffic against four acceleration groups backed by wide EC2 tiers, no
/// induced background load (events spent on foreground scale instead).
exp::scenario_spec fleet_scale_spec(std::size_t users, std::size_t shards,
                                    std::size_t slots) {
  exp::scenario_spec spec;
  spec.name = "fleet_scale";
  spec.base_seed = 500'000;
  spec.user_count = users;
  spec.duration = util::hours(1.0);
  spec.slot_length = spec.duration / static_cast<double>(slots);
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
  spec.fleet_shards = shards;
  return spec;
}

struct run_record {
  std::size_t jobs = 0;
  double wall_seconds = 0.0;  ///< best over the interleaved trials
  double coordination_seconds = 0.0;  ///< from the best trial
  std::uint64_t fingerprint = 0;
  std::uint64_t obs_fingerprint = 0;
  std::uint64_t timeline_fingerprint = 0;
};

/// The stock fleet SLO objectives evaluated over the merged timeline:
/// generous production-style ceilings (the bench gates determinism of
/// the evaluation, not that this scenario pages).
std::vector<obs::slo_objective> fleet_objectives(std::size_t group_count) {
  return obs::default_fleet_objectives(group_count, /*p99_ceiling_ms=*/5'000.0,
                                       /*error_budget=*/0.10);
}

/// The p99 ceiling shared by fleet_objectives and the fault-leg
/// breach/recover gates.
constexpr double kP99CeilingMs = 5'000.0;

/// The outage victim of the --faults leg (group id == SLO histogram
/// index; group 2 is the mid-tier t2.large/m4.4xlarge/m4.10xlarge band).
constexpr std::uint32_t kOutageGroup = 2;

/// The fleet scenario under fault injection: modest spot hazards on every
/// group (scaled by `hazard_multiplier` for the rate series), one region
/// outage on group 2 strictly inside provisioning slot 1 — both edges land
/// mid-round, so the recovery exercises the coordinator's off-cycle
/// re-aim — plus cold starts and the full resilience path (per-request
/// timeout, capped backoff retries, local fallback).
exp::scenario_spec faulted_fleet_spec(const exp::scenario_spec& base,
                                      double hazard_multiplier) {
  exp::scenario_spec spec = base;
  spec.name = "fleet_scale_faults";
  spec.faults.enabled = true;
  // No spot hazard on the outage group: its availability is driven by the
  // outage window alone, so the breach -> recover p99 gate stays crisp (a
  // post-recovery strike would push a handful of ~56 s local fallbacks
  // into the recovered window and its tail quantile).
  spec.faults.preempt_hazard_per_hour = {
      0.0, 6.0 * hazard_multiplier, 0.0, 6.0 * hazard_multiplier,
      6.0 * hazard_multiplier};
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

/// One point of the hazard-rate sweep (multipliers 0 / 1 / 2 on the
/// faulted spec's preemption hazards).
struct fault_rate_point {
  double multiplier = 0.0;
  std::uint64_t preemptions = 0;
  double acceptance_pct = 0.0;
  double p99_ms = 0.0;
};

/// Fault-leg results fed into BENCH_fleet.json (ran == false omits the
/// whole object).
struct fault_summary {
  bool ran = false;
  bool deterministic = true;
  std::uint64_t fingerprint = 0;
  bool disabled_inert = false;
  std::uint64_t preemptions = 0;
  std::uint64_t inflight_killed = 0;
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t local_fallbacks = 0;
  double outage_window_p99_ms = 0.0;
  double recovered_window_p99_ms = 0.0;
  std::uint64_t alert_fires = 0;
  std::uint64_t alert_clears = 0;
  std::vector<fault_rate_point> rate_series;
};

/// Observability summary fed into BENCH_fleet.json.
struct obs_summary {
  std::size_t trials = 0;
  bool deterministic = true;  ///< obs fingerprint identical across legs
  std::uint64_t fingerprint = 0;
  const obs::registry* registry = nullptr;
};

bool write_fleet_json(const std::string& path, const exp::scenario_spec& spec,
                      const fleet::fleet_result& reference,
                      const std::vector<run_record>& runs, bool deterministic,
                      double users_per_sec, const obs_summary& obs,
                      const obs::alert_report& alerts,
                      const fault_summary& faults, bool checks_passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fleet_scale: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fleet_scale\",\n  \"schema\": 1,\n");
  std::fprintf(f, "  \"checks_passed\": %s,\n",
               checks_passed ? "true" : "false");
  std::fprintf(f, "  \"users\": %zu,\n  \"shards\": %zu,\n", spec.user_count,
               reference.shard_count);
  std::fprintf(f, "  \"slots\": %zu,\n  \"hardware_threads\": %zu,\n",
               reference.slot_count, exp::thread_pool::hardware_workers());
  std::fprintf(f, "  \"requests\": %zu,\n  \"acceptance_pct\": %.2f,\n",
               reference.aggregate.requests,
               reference.aggregate.acceptance_rate() * 100.0);
  std::fprintf(f, "  \"deterministic\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"users_per_sec\": %.0f,\n", users_per_sec);
  std::fprintf(f, "  \"coordination_overhead_pct\": %.3f,\n",
               reference.coordination_overhead() * 100.0);
  std::fprintf(f, "  \"trials\": %zu,\n", obs.trials);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    std::fprintf(f,
                 "    {\"jobs\": %zu, \"wall_seconds\": %.3f, "
                 "\"coordination_seconds\": %.4f, "
                 "\"fingerprint\": \"%016llx\"}%s\n",
                 run.jobs, run.wall_seconds, run.coordination_seconds,
                 static_cast<unsigned long long>(run.fingerprint),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"obs\": {\n"
               "    \"deterministic\": %s,\n"
               "    \"fingerprint\": \"%016llx\"",
               obs.deterministic ? "true" : "false",
               static_cast<unsigned long long>(obs.fingerprint));
  if (obs.registry != nullptr) {
    std::fprintf(f, ",\n    \"counters\": {");
    for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
      std::fprintf(f, "%s\"%s\": %llu", c == 0 ? "" : ", ",
                   obs::counter_name(static_cast<obs::counter>(c)),
                   static_cast<unsigned long long>(
                       obs.registry->get(static_cast<obs::counter>(c))));
    }
    std::fprintf(f, "},\n    \"gauges\": {");
    for (std::size_t g = 0; g < obs::kGaugeCount; ++g) {
      std::fprintf(f, "%s\"%s\": %llu", g == 0 ? "" : ", ",
                   obs::gauge_name(static_cast<obs::gauge>(g)),
                   static_cast<unsigned long long>(
                       obs.registry->get_gauge(static_cast<obs::gauge>(g))));
    }
    std::fprintf(f, "},\n    \"series\": {");
    for (std::size_t s = 0; s < obs::kSeriesCount; ++s) {
      const auto& st = obs.registry->stats(static_cast<obs::series>(s));
      std::fprintf(f,
                   "%s\"%s\": {\"samples\": %llu, \"mean\": %.3f, "
                   "\"max\": %.1f}",
                   s == 0 ? "" : ", ",
                   obs::series_name(static_cast<obs::series>(s)),
                   static_cast<unsigned long long>(st.samples), st.mean(),
                   st.max);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  },\n");
  // Time-resolved layer: one row per provisioning-slot window of the
  // merged timeline (requests / successes / failures / windowed p99),
  // then the deterministic alert evaluation over it.
  std::fprintf(f,
               "  \"timeline\": {\n"
               "    \"fingerprint\": \"%016llx\",\n"
               "    \"windows\": [\n",
               static_cast<unsigned long long>(
                   reference.timeline.fingerprint()));
  for (std::size_t w = 0; w < reference.timeline.size(); ++w) {
    const obs::timeline_window& win = reference.timeline.window(w);
    const util::histogram merged = win.merged_slo();
    std::fprintf(
        f,
        "      {\"slot\": %llu, \"sim_end_min\": %.1f, \"requests\": %llu, "
        "\"successes\": %llu, \"failures\": %llu, \"p99_ms\": %.1f, "
        "\"exemplars_admitted\": %llu}%s\n",
        static_cast<unsigned long long>(win.slot), win.sim_end_ms / 60'000.0,
        static_cast<unsigned long long>(win.delta(obs::counter::sdn_requests)),
        static_cast<unsigned long long>(win.delta(obs::counter::sdn_successes)),
        static_cast<unsigned long long>(win.delta(obs::counter::sdn_failures)),
        merged.total() > 0 ? merged.quantile_interpolated(0.99) : 0.0,
        static_cast<unsigned long long>(
            win.delta(obs::counter::exemplar_admitted)),
        w + 1 < reference.timeline.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n"
               "    \"exemplars\": %zu\n  },\n",
               reference.exemplars.size());
  std::fprintf(f,
               "  \"alerts\": {\n"
               "    \"fingerprint\": \"%016llx\",\n"
               "    \"objectives\": %zu,\n"
               "    \"fires\": %llu,\n    \"clears\": %llu,\n"
               "    \"events\": [\n",
               static_cast<unsigned long long>(alerts.fingerprint()),
               alerts.objectives.size(),
               static_cast<unsigned long long>(alerts.fires),
               static_cast<unsigned long long>(alerts.clears));
  for (std::size_t e = 0; e < alerts.events.size(); ++e) {
    const obs::alert_event& event = alerts.events[e];
    std::fprintf(
        f,
        "      {\"objective\": \"%s\", \"slot\": %llu, \"edge\": \"%s\", "
        "\"short_value\": %.3f, \"long_value\": %.3f}%s\n",
        alerts.objectives[event.objective].name.c_str(),
        static_cast<unsigned long long>(event.slot),
        event.fired ? "fire" : "clear", event.short_value, event.long_value,
        e + 1 < alerts.events.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  if (faults.ran) {
    std::fprintf(
        f,
        "  \"faults\": {\n"
        "    \"deterministic\": %s,\n"
        "    \"fingerprint\": \"%016llx\",\n"
        "    \"disabled_program_inert\": %s,\n"
        "    \"preemptions\": %llu,\n    \"inflight_killed\": %llu,\n"
        "    \"outages\": %llu,\n    \"recoveries\": %llu,\n"
        "    \"cold_starts\": %llu,\n    \"timeouts\": %llu,\n"
        "    \"retries\": %llu,\n    \"local_fallbacks\": %llu,\n"
        "    \"outage_window_p99_ms\": %.1f,\n"
        "    \"recovered_window_p99_ms\": %.1f,\n"
        "    \"alert_fires\": %llu,\n    \"alert_clears\": %llu,\n"
        "    \"rate_series\": [\n",
        faults.deterministic ? "true" : "false",
        static_cast<unsigned long long>(faults.fingerprint),
        faults.disabled_inert ? "true" : "false",
        static_cast<unsigned long long>(faults.preemptions),
        static_cast<unsigned long long>(faults.inflight_killed),
        static_cast<unsigned long long>(faults.outages),
        static_cast<unsigned long long>(faults.recoveries),
        static_cast<unsigned long long>(faults.cold_starts),
        static_cast<unsigned long long>(faults.timeouts),
        static_cast<unsigned long long>(faults.retries),
        static_cast<unsigned long long>(faults.local_fallbacks),
        faults.outage_window_p99_ms, faults.recovered_window_p99_ms,
        static_cast<unsigned long long>(faults.alert_fires),
        static_cast<unsigned long long>(faults.alert_clears));
    for (std::size_t p = 0; p < faults.rate_series.size(); ++p) {
      const fault_rate_point& point = faults.rate_series[p];
      std::fprintf(f,
                   "      {\"multiplier\": %.1f, \"preemptions\": %llu, "
                   "\"acceptance_pct\": %.2f, \"p99_ms\": %.1f}%s\n",
                   point.multiplier,
                   static_cast<unsigned long long>(point.preemptions),
                   point.acceptance_pct, point.p99_ms,
                   p + 1 < faults.rate_series.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
  }
  if (obs.registry != nullptr) {
    std::fprintf(f, "  \"slo_ms\": ");
    obs::write_slo_json(f, obs::build_slo_report(*obs.registry), 2);
    std::fprintf(f, ",\n");
  }
  std::fprintf(f, "  \"ilp\": {\"fleet_solves\": %zu, \"warm_solves\": %zu}\n",
               reference.ilp_solves, reference.warm_solves);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::size_t users = bench::flag_count(
      argc, argv, "--users", smoke ? 40'000 : 500'000, "fleet_scale");
  const std::size_t shards =
      bench::flag_count(argc, argv, "--shards", smoke ? 4 : 16, "fleet_scale");
  const std::size_t slots =
      bench::flag_count(argc, argv, "--slots", 4, "fleet_scale");
  const std::size_t trials =
      bench::flag_count(argc, argv, "--trials", 3, "fleet_scale");
  const auto trace_path = bench::flag_value(argc, argv, "--trace");
  const auto health_path = bench::flag_value(argc, argv, "--health");
  const bool with_faults = bench::has_flag(argc, argv, "--faults");
  const auto fault_health_path = bench::flag_value(argc, argv, "--fault-health");
  const auto trace_slots = bench::flag_value(argc, argv, "--trace-slots");
  const std::string out_path =
      bench::flag_value(argc, argv, "--out").value_or("BENCH_fleet.json");
  std::vector<std::uint64_t> jobs_list{1, 4, 16};
  if (smoke) jobs_list = {1, 2};
  if (const auto jobs = bench::flag_value(argc, argv, "--jobs")) {
    jobs_list = bench::parse_id_list(*jobs);
    if (jobs_list.empty()) {
      std::fprintf(stderr,
                   "fleet_scale: --jobs needs a comma-separated integer "
                   "list, got '%s'\n",
                   jobs->c_str());
      return 2;
    }
  }

  if (slots == 0) {
    std::fprintf(stderr, "fleet_scale: --slots must be >= 1\n");
    return 2;
  }
  if (trials == 0) {
    std::fprintf(stderr, "fleet_scale: --trials must be >= 1\n");
    return 2;
  }
  obs::trace_filter slot_filter;
  bool have_slot_filter = false;
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
    have_slot_filter = true;
    slot_filter.slot_begin = a;
    slot_filter.slot_end = b;
  }
  const exp::scenario_spec spec = fleet_scale_spec(users, shards, slots);
  if (have_slot_filter) {
    // Simulated extent of slots A..B inclusive — the window trace-stamped
    // spans must overlap to survive the filter.
    slot_filter.sim_begin_ms =
        spec.slot_length * static_cast<double>(slot_filter.slot_begin);
    slot_filter.sim_end_ms =
        spec.slot_length * static_cast<double>(slot_filter.slot_end + 1);
  }
  tasks::task_pool task_pool;
  fleet::fleet_options options;
  options.shards = shards;

  bench::check_list checks;

  // Timed legs: one per pool size.  Trials are interleaved — trial t of
  // every leg runs before trial t+1 of any — so slow host drift hits all
  // legs alike.
  std::vector<run_record> runs(jobs_list.size());
  fleet::fleet_result reference;
  bool have_reference = false;
  bool trial_fingerprints_agree = true;

  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t li = 0; li < jobs_list.size(); ++li) {
      const auto jobs = static_cast<std::size_t>(jobs_list[li]);
      bench::section(std::to_string(users) + " users / " +
                     std::to_string(shards) + " shards @ jobs=" +
                     std::to_string(jobs) + " trial " +
                     std::to_string(t + 1) + "/" + std::to_string(trials));
      exp::thread_pool pool{jobs};
      fleet::fleet_result result =
          fleet::run_fleet(spec, options, task_pool, pool);

      run_record& record = runs[li];
      if (t == 0) {
        record.jobs = jobs;
        record.wall_seconds = result.wall_seconds;
        record.coordination_seconds = result.coordination_seconds;
        record.fingerprint = result.fingerprint();
        record.obs_fingerprint = result.observability.fingerprint();
        record.timeline_fingerprint = result.timeline.fingerprint();
      } else {
        trial_fingerprints_agree =
            trial_fingerprints_agree &&
            result.fingerprint() == record.fingerprint &&
            result.observability.fingerprint() == record.obs_fingerprint &&
            result.timeline.fingerprint() == record.timeline_fingerprint;
        if (result.wall_seconds < record.wall_seconds) {
          record.wall_seconds = result.wall_seconds;
          record.coordination_seconds = result.coordination_seconds;
        }
      }

      std::printf(
          "wall %6.2f s   coordination %5.3f s (%.2f%%)   requests %zu   "
          "acceptance %.1f%%   fingerprint %016llx\n",
          result.wall_seconds, result.coordination_seconds,
          result.coordination_overhead() * 100.0, result.aggregate.requests,
          result.aggregate.acceptance_rate() * 100.0,
          static_cast<unsigned long long>(result.fingerprint()));
      if (!have_reference) {
        reference = std::move(result);
        have_reference = true;
      }
    }
  }

  bool deterministic = trial_fingerprints_agree;
  for (const auto& run : runs) {
    deterministic = deterministic && run.fingerprint == runs[0].fingerprint;
  }
  checks.expect(deterministic,
                "merge fingerprint bit-identical across thread counts "
                "and trials",
                bench::ratio_detail(
                    "distinct fingerprints",
                    static_cast<double>(
                        std::count_if(runs.begin(), runs.end(),
                                      [&](const run_record& r) {
                                        return r.fingerprint !=
                                               runs[0].fingerprint;
                                      }) +
                        1)));
  // Same gate for the counter registry: its fingerprint (which excludes
  // the scheduling-dependent pool counters) must not move with the pool
  // size either.
  bool obs_deterministic = true;
  for (const auto& run : runs) {
    obs_deterministic =
        obs_deterministic && run.obs_fingerprint == runs[0].obs_fingerprint;
  }
  checks.expect(obs_deterministic,
                "obs registry fingerprint bit-identical across thread counts",
                bench::ratio_detail("obs fingerprint",
                                    static_cast<double>(
                                        runs[0].obs_fingerprint & 0xffff)));

  obs_summary obs;
  obs.trials = trials;
  obs.deterministic = obs_deterministic;
  obs.fingerprint = runs[0].obs_fingerprint;
  obs.registry = &reference.observability;
  checks.expect(reference.observability.get(obs::counter::sdn_requests) ==
                    reference.aggregate.requests,
                "sdn_requests counter matches the merged request total",
                bench::ratio_detail(
                    "counted", static_cast<double>(reference.observability.get(
                                   obs::counter::sdn_requests))));
  checks.expect(reference.ilp_solves > 0, "fleet ILP solved at least one slot",
                bench::ratio_detail(
                    "solves", static_cast<double>(reference.ilp_solves)));
  checks.expect(
      reference.warm_solves + 1 >= reference.ilp_solves,
      "every fleet solve after the first reused the warm tableau",
      bench::ratio_detail("warm", static_cast<double>(reference.warm_solves)));

  // ---- time-resolved telemetry: timeline / exemplars / alerts ----------
  bench::section("per-slot timeline, tail exemplars, SLO alerts");
  bool timeline_deterministic = true;
  for (const auto& run : runs) {
    timeline_deterministic =
        timeline_deterministic &&
        run.timeline_fingerprint == runs[0].timeline_fingerprint;
  }
  checks.expect(timeline_deterministic,
                "timeline fingerprint bit-identical across thread counts "
                "and trials",
                bench::ratio_detail(
                    "timeline fingerprint",
                    static_cast<double>(runs[0].timeline_fingerprint &
                                        0xffff)));
  checks.expect(reference.timeline.size() == slots + 1,
                "timeline holds one window per slot plus the drain tail",
                bench::ratio_detail(
                    "windows", static_cast<double>(reference.timeline.size())));
  checks.expect(
      !reference.exemplars.empty() &&
          reference.exemplars.size() <=
              options.exemplar_top_k * (slots + 1),
      "fleet tail exemplars present and bounded by top-K per window",
      bench::ratio_detail("exemplars",
                          static_cast<double>(reference.exemplars.size())));
  const std::vector<obs::slo_objective> objectives =
      fleet_objectives(reference.timeline.group_count());
  const obs::alert_report alerts =
      obs::evaluate_alerts(reference.timeline, objectives);
  const obs::alert_report alerts_replay =
      obs::evaluate_alerts(reference.timeline, objectives);
  checks.expect(alerts.fingerprint() == alerts_replay.fingerprint(),
                "SLO alert evaluation reproduces bit-identically",
                bench::ratio_detail(
                    "alert fingerprint",
                    static_cast<double>(alerts.fingerprint() & 0xffff)));
  std::printf(
      "timeline windows %zu   exemplars %zu   objectives %zu   "
      "alert fires %llu   clears %llu\n",
      reference.timeline.size(), reference.exemplars.size(),
      objectives.size(), static_cast<unsigned long long>(alerts.fires),
      static_cast<unsigned long long>(alerts.clears));
  if (health_path) {
    const bool health_written = obs::write_health_report(
        *health_path, reference.timeline, alerts, reference.exemplars);
    checks.expect(health_written, "fleet health report written",
                  health_path->c_str());
    if (health_written) std::printf("wrote %s\n", health_path->c_str());
  }

  // ---- traced leg (untimed): span rings + Chrome trace export ---------
  if (trace_path) {
    const std::size_t trace_jobs =
        static_cast<std::size_t>(jobs_list.back());
    bench::section("traced run @ jobs=" + std::to_string(trace_jobs) +
                   " (untimed)");
    obs::tracer tracer{{shards + 1 + trace_jobs, 4096}};
    exp::thread_pool pool{trace_jobs};
    fleet::fleet_options traced_options = options;
    traced_options.tracer = &tracer;
    // Sample densely enough that even the smoke population produces
    // request-lifecycle spans.
    traced_options.trace_sample_every = smoke ? 64 : 1024;
    const fleet::fleet_result traced =
        fleet::run_fleet(spec, traced_options, task_pool, pool);
    checks.expect(traced.fingerprint() == runs[0].fingerprint,
                  "tracing does not perturb the merged fingerprint",
                  bench::ratio_detail(
                      "fingerprint xor",
                      static_cast<double>((traced.fingerprint() ^
                                           runs[0].fingerprint) &
                                          0xffff)));
    // The timeline fingerprint excludes trace-dependent counters
    // (sdn_sampled_spans only counts under a tracer), so it must match
    // the untraced legs bit for bit too.
    checks.expect(
        traced.timeline.fingerprint() == runs[0].timeline_fingerprint,
        "traced-leg timeline fingerprint matches the untraced legs",
        bench::ratio_detail(
            "timeline xor",
            static_cast<double>((traced.timeline.fingerprint() ^
                                 runs[0].timeline_fingerprint) &
                                0xffff)));

    bool has_slot_round = false;
    bool has_solve = false;
    bool has_advance = false;
    bool has_lifecycle = false;
    for (std::size_t r = 0; r < tracer.ring_count(); ++r) {
      const obs::span_ring& ring = tracer.ring(r);
      for (std::size_t i = 0; i < ring.size(); ++i) {
        switch (ring.at(i).kind) {
          case obs::span_kind::slot_round: has_slot_round = true; break;
          case obs::span_kind::coordinator_solve: has_solve = true; break;
          case obs::span_kind::shard_advance: has_advance = true; break;
          case obs::span_kind::request_lifecycle: has_lifecycle = true; break;
          default: break;
        }
      }
    }
    checks.expect(has_slot_round && has_solve,
                  "trace holds slot-round and coordinator-solve spans",
                  has_slot_round ? "no solve spans" : "no slot-round spans");
    checks.expect(has_advance, "trace holds shard-advance spans", "none");
    checks.expect(
        has_lifecycle &&
            traced.observability.get(obs::counter::sdn_sampled_spans) > 0,
        "trace holds sampled request-lifecycle spans",
        bench::ratio_detail(
            "sampled",
            static_cast<double>(traced.observability.get(
                obs::counter::sdn_sampled_spans))));

    std::vector<std::string> ring_names;
    for (std::size_t k = 0; k < shards; ++k) {
      ring_names.push_back("shard " + std::to_string(k));
    }
    ring_names.push_back("coordinator");
    for (std::size_t w = 0; w < trace_jobs; ++w) {
      ring_names.push_back("pool worker " + std::to_string(w));
    }
    // Post-run lanes on the simulated-time process: the fleet's tail
    // exemplars and the SLO alert intervals evaluated over the traced
    // leg's timeline.
    std::vector<obs::trace_lane> lanes;
    lanes.push_back({"tail exemplars", obs::exemplar_spans(traced.exemplars)});
    lanes.push_back(
        {"slo alerts",
         obs::alert_spans(obs::evaluate_alerts(traced.timeline, objectives),
                          traced.timeline)});
    checks.expect(!lanes[0].spans.empty(),
                  "exemplar lane holds tail request spans",
                  bench::ratio_detail(
                      "lane spans",
                      static_cast<double>(lanes[0].spans.size())));
    const bool exported = tracer.export_chrome_trace(
        *trace_path, ring_names, lanes,
        have_slot_filter ? &slot_filter : nullptr);
    checks.expect(exported, "Chrome trace written", trace_path->c_str());
    std::printf(
        "spans %llu (dropped %llu)   lanes %zu (%zu + %zu spans)   "
        "wrote %s%s\n",
        static_cast<unsigned long long>(tracer.total_spans()),
        static_cast<unsigned long long>(tracer.total_dropped()),
        lanes.size(), lanes[0].spans.size(), lanes[1].spans.size(),
        trace_path->c_str(),
        have_slot_filter ? " (slot-window filtered)" : "");
  }

  // ---- fault injection & resilience (--faults) ---------------------------
  // One leg per pool size runs the same scenario under the fault program
  // (spot hazards on every group, a region outage on group 2 strictly
  // inside slot 1, cold starts, timeout/retry/fallback).  Hard gates:
  // the faulted fingerprints are thread-count-independent, the front-end
  // loses nothing (requests == successes + failures), the outage window's
  // group p99 breaches the SLO ceiling and the next window recovers (with
  // the matching alert fire + clear), and replaying the populated program
  // with enabled=false reproduces the fault-free fingerprints bit for bit.
  fault_summary fsum;
  obs::alert_report fault_alerts;
  fleet::fleet_result fault_reference;
  if (with_faults) {
    bench::section("fault injection & resilience (--faults)");
    const exp::scenario_spec fault_spec = faulted_fleet_spec(spec, 1.0);
    bool have_fault_reference = false;
    std::uint64_t fault_obs_fp = 0;
    std::uint64_t fault_tl_fp = 0;
    fsum.ran = true;
    for (const std::uint64_t jobs : jobs_list) {
      exp::thread_pool pool{static_cast<std::size_t>(jobs)};
      fleet::fleet_result result =
          fleet::run_fleet(fault_spec, options, task_pool, pool);
      std::printf(
          "faults @ jobs=%2llu   wall %6.2f s   requests %zu   "
          "acceptance %.1f%%   fingerprint %016llx\n",
          static_cast<unsigned long long>(jobs), result.wall_seconds,
          result.aggregate.requests,
          result.aggregate.acceptance_rate() * 100.0,
          static_cast<unsigned long long>(result.fingerprint()));
      if (!have_fault_reference) {
        fsum.fingerprint = result.fingerprint();
        fault_obs_fp = result.observability.fingerprint();
        fault_tl_fp = result.timeline.fingerprint();
        fault_reference = std::move(result);
        have_fault_reference = true;
      } else {
        fsum.deterministic =
            fsum.deterministic && result.fingerprint() == fsum.fingerprint &&
            result.observability.fingerprint() == fault_obs_fp &&
            result.timeline.fingerprint() == fault_tl_fp;
      }
    }
    checks.expect(fsum.deterministic,
                  "faulted fingerprints (aggregate, obs, timeline) "
                  "bit-identical across thread counts",
                  bench::ratio_detail(
                      "fault fingerprint",
                      static_cast<double>(fsum.fingerprint & 0xffff)));

    const obs::registry& fr = fault_reference.observability;
    fsum.preemptions = fr.get(obs::counter::fault_preemptions);
    fsum.inflight_killed = fr.get(obs::counter::fault_inflight_killed);
    fsum.outages = fr.get(obs::counter::fault_outages);
    fsum.recoveries = fr.get(obs::counter::fault_recoveries);
    fsum.cold_starts = fr.get(obs::counter::fault_cold_starts);
    fsum.timeouts = fr.get(obs::counter::sdn_timeouts);
    fsum.retries = fr.get(obs::counter::sdn_retries);
    fsum.local_fallbacks = fr.get(obs::counter::sdn_local_fallbacks);
    const std::uint64_t f_requests = fr.get(obs::counter::sdn_requests);
    const std::uint64_t f_successes = fr.get(obs::counter::sdn_successes);
    const std::uint64_t f_failures = fr.get(obs::counter::sdn_failures);
    std::printf(
        "preemptions %llu (killed %llu in flight)   outages %llu   "
        "recoveries %llu   cold starts %llu\n"
        "timeouts %llu   retries %llu   local fallbacks %llu\n",
        static_cast<unsigned long long>(fsum.preemptions),
        static_cast<unsigned long long>(fsum.inflight_killed),
        static_cast<unsigned long long>(fsum.outages),
        static_cast<unsigned long long>(fsum.recoveries),
        static_cast<unsigned long long>(fsum.cold_starts),
        static_cast<unsigned long long>(fsum.timeouts),
        static_cast<unsigned long long>(fsum.retries),
        static_cast<unsigned long long>(fsum.local_fallbacks));
    checks.expect(f_requests == f_successes + f_failures,
                  "zero-loss: every accepted request terminated "
                  "(successes + failures == requests)",
                  bench::ratio_detail(
                      "unaccounted",
                      static_cast<double>(f_requests - f_successes -
                                          f_failures)));
    checks.expect(fsum.local_fallbacks <= f_successes,
                  "local fallbacks are a subset of successes",
                  bench::ratio_detail(
                      "fallbacks", static_cast<double>(fsum.local_fallbacks)));
    checks.expect(fsum.preemptions > 0 && fsum.cold_starts > 0,
                  "hazard draws produced strikes and relaunches paid "
                  "cold starts",
                  bench::ratio_detail(
                      "strikes", static_cast<double>(fsum.preemptions)));
    // Every shard schedules the (unsliced) outage window over its own
    // sub-population, and every begin must be matched by a recovery.
    checks.expect(fsum.outages == shards && fsum.recoveries == fsum.outages,
                  "one outage begin/end pair per shard",
                  bench::ratio_detail("outages",
                                      static_cast<double>(fsum.outages)));

    // Breach-then-recover: the outage lives inside slot 1, so window 1's
    // per-group p99 must blow through the ceiling (retries + local
    // fallback latencies) and window 2 — after the off-cycle re-aim —
    // must be back under it.
    const obs::timeline& ftl = fault_reference.timeline;
    if (slots >= 3 && ftl.size() >= 3 &&
        kOutageGroup < ftl.group_count()) {
      const util::histogram& breached = ftl.window(1).slo[kOutageGroup];
      const util::histogram& recovered = ftl.window(2).slo[kOutageGroup];
      fsum.outage_window_p99_ms =
          breached.total() > 0 ? breached.quantile_interpolated(0.99) : 0.0;
      fsum.recovered_window_p99_ms =
          recovered.total() > 0 ? recovered.quantile_interpolated(0.99) : 0.0;
      std::printf(
          "outage group %u windowed p99: slot 1 %.0f ms -> slot 2 %.0f ms "
          "(ceiling %.0f ms)\n",
          kOutageGroup, fsum.outage_window_p99_ms,
          fsum.recovered_window_p99_ms, kP99CeilingMs);
      checks.expect(
          breached.total() > 0 && fsum.outage_window_p99_ms > kP99CeilingMs,
          "outage window p99 breaches the SLO ceiling",
          bench::ratio_detail("p99 ms", fsum.outage_window_p99_ms));
      checks.expect(recovered.total() > 0 &&
                        fsum.recovered_window_p99_ms < kP99CeilingMs,
                    "post-recovery window p99 back under the ceiling",
                    bench::ratio_detail("p99 ms",
                                        fsum.recovered_window_p99_ms));
    } else {
      std::printf(
          "advisory: breach/recover p99 gates need --slots >= 3 "
          "(got %zu)\n",
          slots);
    }
    fault_alerts =
        obs::evaluate_alerts(ftl, fleet_objectives(ftl.group_count()));
    fsum.alert_fires = fault_alerts.fires;
    fsum.alert_clears = fault_alerts.clears;
    bool outage_alert_fired = false;
    bool outage_alert_cleared = false;
    for (const obs::alert_event& event : fault_alerts.events) {
      const obs::slo_objective& objective =
          fault_alerts.objectives[event.objective];
      if (objective.kind == obs::alert_kind::latency_p99 &&
          objective.group == kOutageGroup) {
        (event.fired ? outage_alert_fired : outage_alert_cleared) = true;
      }
    }
    std::printf("alert events: %llu fires / %llu clears\n",
                static_cast<unsigned long long>(fsum.alert_fires),
                static_cast<unsigned long long>(fsum.alert_clears));
    if (slots >= 3) {
      checks.expect(outage_alert_fired && outage_alert_cleared,
                    "outage group p99 alert fired during the outage and "
                    "cleared after recovery",
                    outage_alert_fired
                        ? (outage_alert_cleared ? "fired and cleared"
                                                : "never cleared")
                        : "never fired");
    }
    if (fault_health_path) {
      const bool written = obs::write_health_report(
          *fault_health_path, ftl, fault_alerts, fault_reference.exemplars);
      checks.expect(written, "fault-window health report written",
                    fault_health_path->c_str());
      if (written) std::printf("wrote %s\n", fault_health_path->c_str());
    }

    // Disabled replay: the populated-but-disabled program must be
    // byte-inert — no rng draws, no events — so the fault-free reference
    // fingerprints reproduce exactly.
    {
      exp::scenario_spec disabled_spec = faulted_fleet_spec(spec, 1.0);
      disabled_spec.faults.enabled = false;
      exp::thread_pool pool{static_cast<std::size_t>(jobs_list[0])};
      const fleet::fleet_result disabled =
          fleet::run_fleet(disabled_spec, options, task_pool, pool);
      fsum.disabled_inert =
          disabled.fingerprint() == runs[0].fingerprint &&
          disabled.observability.fingerprint() == runs[0].obs_fingerprint &&
          disabled.timeline.fingerprint() == runs[0].timeline_fingerprint;
      checks.expect(fsum.disabled_inert,
                    "disabled fault program replays the fault-free "
                    "fingerprints bit for bit",
                    bench::ratio_detail(
                        "fingerprint xor",
                        static_cast<double>((disabled.fingerprint() ^
                                             runs[0].fingerprint) &
                                            0xffff)));
    }

    // Hazard-rate series: multipliers 0 / 1 / 2 on the preemption
    // hazards (outage and resilience knobs held fixed).  The m=1 point
    // reuses the reference run.
    for (const double multiplier : {0.0, 1.0, 2.0}) {
      fault_rate_point point;
      point.multiplier = multiplier;
      if (multiplier == 1.0) {
        point.preemptions = fsum.preemptions;
        point.acceptance_pct =
            fault_reference.aggregate.acceptance_rate() * 100.0;
        point.p99_ms =
            fault_reference.aggregate.latency.quantile_interpolated(0.99);
      } else {
        exp::thread_pool pool{static_cast<std::size_t>(jobs_list[0])};
        const fleet::fleet_result swept = fleet::run_fleet(
            faulted_fleet_spec(spec, multiplier), options, task_pool, pool);
        point.preemptions =
            swept.observability.get(obs::counter::fault_preemptions);
        point.acceptance_pct = swept.aggregate.acceptance_rate() * 100.0;
        point.p99_ms = swept.aggregate.latency.quantile_interpolated(0.99);
      }
      std::printf(
          "hazard x%.0f:   preemptions %5llu   acceptance %6.2f%%   "
          "p99 %7.1f ms\n",
          point.multiplier,
          static_cast<unsigned long long>(point.preemptions),
          point.acceptance_pct, point.p99_ms);
      fsum.rate_series.push_back(point);
    }
    checks.expect(fsum.rate_series[0].preemptions == 0 &&
                      fsum.rate_series[2].preemptions >
                          fsum.rate_series[0].preemptions,
                  "preemption count scales with the hazard multiplier",
                  bench::ratio_detail(
                      "x2 strikes",
                      static_cast<double>(fsum.rate_series[2].preemptions)));

    // Traced fault leg (untimed): same export as the main traced leg,
    // plus the fault-window lane (one span per outage, one marker per
    // strike) derived from the program's expanded schedule.
    if (trace_path) {
      const std::string fault_trace_path = *trace_path + ".faults.json";
      const std::size_t trace_jobs =
          static_cast<std::size_t>(jobs_list.back());
      obs::tracer tracer{{shards + 1 + trace_jobs, 4096}};
      exp::thread_pool pool{trace_jobs};
      fleet::fleet_options traced_options = options;
      traced_options.tracer = &tracer;
      traced_options.trace_sample_every = smoke ? 64 : 1024;
      const fleet::fleet_result traced =
          fleet::run_fleet(fault_spec, traced_options, task_pool, pool);
      checks.expect(traced.fingerprint() == fsum.fingerprint,
                    "tracing does not perturb the faulted fingerprint",
                    bench::ratio_detail(
                        "fingerprint xor",
                        static_cast<double>((traced.fingerprint() ^
                                             fsum.fingerprint) &
                                            0xffff)));
      std::vector<std::string> ring_names;
      for (std::size_t k = 0; k < shards; ++k) {
        ring_names.push_back("shard " + std::to_string(k));
      }
      ring_names.push_back("coordinator");
      for (std::size_t w = 0; w < trace_jobs; ++w) {
        ring_names.push_back("pool worker " + std::to_string(w));
      }
      std::vector<obs::trace_lane> lanes;
      lanes.push_back(
          {"tail exemplars", obs::exemplar_spans(traced.exemplars)});
      lanes.push_back(
          {"slo alerts",
           obs::alert_spans(
               obs::evaluate_alerts(traced.timeline,
                                    fleet_objectives(
                                        traced.timeline.group_count())),
               traced.timeline)});
      lanes.push_back(
          {"fault windows",
           fault::fault_spans(
               fault_spec.faults,
               fault::make_preemption_schedule(fault_spec.faults,
                                               fault_spec.duration,
                                               fault_spec.base_seed))});
      checks.expect(!lanes.back().spans.empty(),
                    "fault lane holds outage spans and strike markers",
                    bench::ratio_detail(
                        "lane spans",
                        static_cast<double>(lanes.back().spans.size())));
      const bool exported = tracer.export_chrome_trace(
          fault_trace_path, ring_names, lanes,
          have_slot_filter ? &slot_filter : nullptr);
      checks.expect(exported, "faulted Chrome trace written",
                    fault_trace_path.c_str());
      if (exported) std::printf("wrote %s\n", fault_trace_path.c_str());
    }
  }

  double best_wall = runs[0].wall_seconds;
  for (const auto& run : runs) best_wall = std::min(best_wall, run.wall_seconds);
  const double users_per_sec =
      best_wall > 0.0 ? static_cast<double>(users) / best_wall : 0.0;
  std::printf("\nthroughput: %.0f simulated users/sec (best run)\n",
              users_per_sec);

  const int exit_code = checks.finish("fleet_scale");
  if (!write_fleet_json(out_path, spec, reference, runs, deterministic,
                        users_per_sec, obs, alerts, fsum, exit_code == 0)) {
    return 1;
  }
  return exit_code;
}
