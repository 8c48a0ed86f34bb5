// fig_suite — the replicated closed-loop figure scenarios on the
// experiment runner (src/exp), timed serial vs parallel.
//
// For every selected scenario the suite runs the same replication plan
// twice: once on a 1-worker pool and once on a --jobs pool.  The two
// merged aggregates must be byte-identical (fingerprint check, gated);
// the wall-time ratio is the parallel speedup, recorded in
// BENCH_figures.json so end-to-end regressions are visible PR over PR.
//
// Usage:
//   fig_suite [--scenario NAME] [--replications R] [--seeds a,b,c]
//             [--jobs N] [--out PATH] [--list]
//
// Any other argument (--help included), or a value flag with no value,
// exits 2 before anything runs or BENCH_figures.json is written.
//
// The >2x speedup gate applies only when the machine actually has >= 4
// hardware threads; on smaller machines (and throttled CI runners) the
// ratio is reported but advisory.  Both legs build the spec's study
// serially inside their timed region, so each leg also prints that
// set-up (one exp::make_study, timed here) and the speed-up ceiling it
// implies; a failed speed-up check names both, which says whether the
// set-up or the host held the ratio back.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/bench_clock.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "obs/slo.h"
#include "tasks/task.h"

namespace {

using namespace mca;

struct figure_record {
  std::string name;
  std::size_t replications = 0;
  std::size_t jobs = 0;
  double wall_seconds_serial = 0.0;
  double wall_seconds_parallel = 0.0;
  double speedup = 0.0;
  bool deterministic = false;
  std::uint64_t fingerprint = 0;
  std::size_t requests = 0;
  double acceptance_pct = 0.0;
  double mean_response_ms = 0.0;
  double mean_cost_usd = 0.0;
  /// Response-time percentiles off the merged latency histogram
  /// (within-bin interpolated; the SLO columns of Fig. 9-style tables).
  obs::slo_row slo;
  std::size_t errors = 0;
};

bool write_figures_json(const std::string& path, std::size_t jobs,
                        std::size_t hardware_threads,
                        const std::vector<figure_record>& figures,
                        bool checks_passed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "fig_suite: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_suite\",\n  \"schema\": 1,\n");
  std::fprintf(f, "  \"jobs\": %zu,\n  \"hardware_threads\": %zu,\n", jobs,
               hardware_threads);
  std::fprintf(f, "  \"checks_passed\": %s,\n",
               checks_passed ? "true" : "false");
  std::fprintf(f, "  \"figures\": [\n");
  for (std::size_t i = 0; i < figures.size(); ++i) {
    const auto& fig = figures[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"replications\": %zu, ",
                 fig.name.c_str(), fig.replications);
    std::fprintf(f, "\"jobs\": %zu, \"errors\": %zu,\n", fig.jobs, fig.errors);
    std::fprintf(f,
                 "     \"wall_seconds_serial\": %.4f, "
                 "\"wall_seconds_parallel\": %.4f, \"speedup\": %.3f,\n",
                 fig.wall_seconds_serial, fig.wall_seconds_parallel,
                 fig.speedup);
    std::fprintf(f,
                 "     \"deterministic\": %s, \"fingerprint\": "
                 "\"%016llx\",\n",
                 fig.deterministic ? "true" : "false",
                 static_cast<unsigned long long>(fig.fingerprint));
    std::fprintf(f,
                 "     \"requests\": %zu, \"acceptance_pct\": %.2f, "
                 "\"mean_response_ms\": %.2f, \"mean_cost_usd\": %.4f,\n",
                 fig.requests, fig.acceptance_pct, fig.mean_response_ms,
                 fig.mean_cost_usd);
    std::fprintf(f,
                 "     \"slo_ms\": {\"samples\": %zu, \"p50\": %.2f, "
                 "\"p95\": %.2f, \"p99\": %.2f, \"p999\": %.2f}}%s\n",
                 fig.slo.samples, fig.slo.p50_ms, fig.slo.p95_ms,
                 fig.slo.p99_ms, fig.slo.p999_ms,
                 i + 1 < figures.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

/// The best speed-up `jobs` workers can reach on a leg whose serial run
/// took `serial_s`, `setup_s` of it the serial set-up: set-up plus the
/// replication rounds the busiest worker runs, each replication taking
/// an equal share of the rest.
double speedup_ceiling(double serial_s, double setup_s,
                       std::size_t replications, std::size_t jobs) {
  const double work_s = serial_s > setup_s ? serial_s - setup_s : 0.0;
  const std::size_t rounds = (replications + jobs - 1) / jobs;
  const double ideal_s = setup_s + work_s * static_cast<double>(rounds) /
                                       static_cast<double>(replications);
  return ideal_s > 0.0 ? serial_s / ideal_s : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::reject_unknown_flags(argc, argv, "fig_suite",
                              {{"--list"},
                               {"--scenario", true},
                               {"--replications", true},
                               {"--jobs", true},
                               {"--out", true},
                               {"--seeds", true}});
  const auto scenarios = exp::builtin_scenarios();
  if (bench::has_flag(argc, argv, "--list")) {
    for (const auto& spec : scenarios) {
      std::printf("%-18s %4zu users, %5.1f h, %s tasks, %s gaps\n",
                  spec.name.c_str(), spec.user_count,
                  spec.duration / util::hours(1.0),
                  exp::to_string(spec.tasks), exp::to_string(spec.gaps));
    }
    return 0;
  }

  const auto filter = bench::flag_value(argc, argv, "--scenario");
  const std::size_t replications =
      bench::flag_count(argc, argv, "--replications", 6, "fig_suite");
  const std::size_t hardware = exp::thread_pool::hardware_workers();
  const std::size_t jobs =
      bench::flag_count(argc, argv, "--jobs", hardware, "fig_suite");
  const std::string out_path = bench::flag_value(argc, argv, "--out")
                                   .value_or("BENCH_figures.json");
  std::optional<std::vector<std::uint64_t>> explicit_seeds;
  if (const auto seeds = bench::flag_value(argc, argv, "--seeds")) {
    explicit_seeds = bench::parse_id_list(*seeds);
    if (explicit_seeds->empty()) {
      std::fprintf(stderr,
                   "fig_suite: --seeds needs a comma-separated integer "
                   "list, got '%s'\n",
                   seeds->c_str());
      return 2;
    }
  }

  bench::check_list checks;
  tasks::task_pool task_pool;
  std::vector<figure_record> figures;

  bool matched_any = false;
  for (const auto& spec : scenarios) {
    if (filter && spec.name != *filter) continue;
    matched_any = true;

    const exp::replication_plan plan =
        explicit_seeds ? exp::replication_plan::explicit_seeds(*explicit_seeds)
                       : spec.plan(replications);

    bench::section(spec.name + " (" + std::to_string(plan.count()) +
                   " replications)");

    exp::scenario_result serial;
    {
      exp::thread_pool pool{1};
      serial = exp::run_scenario(spec, plan, task_pool, pool);
    }
    exp::scenario_result parallel;
    if (jobs > 1) {
      exp::thread_pool pool{jobs};
      parallel = exp::run_scenario(spec, plan, task_pool, pool);
    } else {
      parallel = serial;
    }

    figure_record record;
    record.name = spec.name;
    record.replications = plan.count();
    record.jobs = jobs;
    record.wall_seconds_serial = serial.wall_seconds;
    record.wall_seconds_parallel = parallel.wall_seconds;
    record.speedup = jobs > 1 && parallel.wall_seconds > 0.0
                         ? serial.wall_seconds / parallel.wall_seconds
                         : 1.0;
    record.deterministic = parallel.aggregate.fingerprint() ==
                           serial.aggregate.fingerprint();
    record.fingerprint = serial.aggregate.fingerprint();
    record.requests = serial.aggregate.requests;
    record.acceptance_pct = serial.aggregate.acceptance_rate() * 100.0;
    record.mean_response_ms = serial.aggregate.response.mean();
    record.mean_cost_usd = serial.aggregate.cost_usd.mean();
    record.slo = obs::slo_from_histogram(serial.aggregate.latency, spec.name);
    // At jobs <= 1 `parallel` is a copy of `serial`, not a second run.
    record.errors = serial.errors.size() +
                    (jobs > 1 ? parallel.errors.size() : 0);

    std::printf(
        "serial %6.2f s   jobs=%zu %6.2f s   speedup %.2fx\n"
        "requests %zu   acceptance %.1f%%   mean response %.0f ms   "
        "p50/p95/p99 %.0f/%.0f/%.0f ms   mean cost $%.3f\n",
        record.wall_seconds_serial, jobs, record.wall_seconds_parallel,
        record.speedup, record.requests, record.acceptance_pct,
        record.mean_response_ms, record.slo.p50_ms, record.slo.p95_ms,
        record.slo.p99_ms, record.mean_cost_usd);

    checks.expect(record.errors == 0, spec.name + ": no failed replications",
                  std::to_string(record.errors) + " errors");
    checks.expect(record.deterministic,
                  spec.name + ": merged metrics identical at 1 and " +
                      std::to_string(jobs) + " threads",
                  bench::ratio_detail("fingerprint xor",
                                      static_cast<double>(
                                          serial.aggregate.fingerprint() ^
                                          parallel.aggregate.fingerprint())));
    if (jobs > 1) {
      const double setup_s =
          exp::seconds_of([&] { (void)exp::make_study(spec); });
      const double ceiling =
          speedup_ceiling(record.wall_seconds_serial, setup_s,
                          record.replications, jobs);
      std::printf("serial set-up %.3f s (one make_study)   ceiling %.2fx at "
                  "%zu jobs\n",
                  setup_s, ceiling, jobs);
      if (jobs >= 4 && hardware >= 4) {
        char ceiling_detail[64];
        std::snprintf(ceiling_detail, sizeof ceiling_detail,
                      ", ceiling %.3f with %.3f s serial set-up", ceiling,
                      setup_s);
        checks.expect(record.speedup > 2.0,
                      spec.name + ": >2x speedup at " + std::to_string(jobs) +
                          " jobs",
                      bench::ratio_detail("speedup", record.speedup) +
                          ceiling_detail);
      }
    }
    if (jobs > 1 && !(jobs >= 4 && hardware >= 4)) {
      std::printf("(speedup gate advisory: %zu hardware threads)\n", hardware);
    }
    figures.push_back(record);
  }

  if (!matched_any) {
    std::fprintf(stderr, "fig_suite: no scenario named '%s' (see --list)\n",
                 filter ? filter->c_str() : "");
    return 2;
  }

  const int exit_code = checks.finish("fig_suite");
  if (!write_figures_json(out_path, jobs, hardware, figures,
                          exit_code == 0)) {
    return 1;
  }
  return exit_code;
}
