// mca_bench — the benchmark of record: one workload per process.
//
// Usage:
//   mca_bench --workload NAME [--seed N] [--seconds T | --repeat R]
//             [--trace 0|1] [--smoke] [--detail FILE]
//
// One process runs one workload (fleet_steady, fleet_faults,
// fleet_parallel, closed_loop_bg), so its peak RSS is its own:
//   1. one untimed warm-up run (absorbs the once-per-process LTE
//      calibration; fleet_parallel's goes through a 1-worker pool and
//      gives the serial reference fingerprint);
//   2. timed runs through the production entry point, closed loop, one at
//      a time: R of them, or as many as fit in --seconds (half of it with
//      --trace 1), at least 3 (2 with --trace 1); peak RSS is read after
//      the first; each is followed by set-up samples worth about a tenth
//      of its wall (at least one);
//   3. with --trace 1, traced runs (R = 1, or the other half of --seconds).
// Every run is checked: fingerprint identical to the reference, counter
// registry requests equal to the aggregate's, zero loss, and in the
// traced run attribution >= 95% and counts identical across traced runs.
//
// Prints `workload metric value unit` lines, then one JSON line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) named in
// BENCHMARK.json.  --detail writes every sample, model output and
// per-layer metric as JSON (run.py --all / --compare read it).  Exits 1
// when a run fails, 2 on a usage error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "obs/registry.h"
#include "tasks/task.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace mca;
using namespace mca_bench;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef MCA_SANITIZE_ENABLED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Set-up sampling after each timed run, as a share of that run's wall
/// (at least one sample per run).
constexpr double kSetupShare = 0.1;
constexpr double kMinAttributedPct = 95.0;

struct options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  std::size_t repeat = 0;  ///< 0: as many runs as fit in `seconds`
  bool trace = false;
  bool smoke = false;
  std::string detail;
};

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && end == last;
}

bool parse_options(int argc, char** argv, options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      std::uint64_t seed = 0;
      if (!parse_number(value, seed)) return false;
      opt.seed = seed;
    } else if (flag == "--seconds") {
      if (!parse_number(value, opt.seconds) || !(opt.seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--repeat") {
      if (!parse_number(value, opt.repeat) || opt.repeat == 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (flag == "--detail") {
      opt.detail = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return exp::thread_pool::hardware_workers();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Counts attempted operations and records every failure.
class run_log {
 public:
  /// Runs fn (which returns whether its checks passed) as one attempted
  /// operation; an exception or a failed check marks it failed.
  template <typename Fn>
  void attempt(const std::string& what, Fn&& fn) {
    ++attempted_;
    try {
      if (fn()) return;
    } catch (const std::exception& e) {
      note(what + ": " + e.what());
    }
    ++failed_;
  }
  bool expect(bool ok, const std::string& failure) {
    if (!ok) note(failure);
    return ok;
  }
  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  bool correct() const noexcept { return failed_ == 0 && failures_.empty(); }

 private:
  void note(const std::string& failure) {
    std::fprintf(stderr, "mca_bench: FAIL %s\n", failure.c_str());
    failures_.push_back(failure);
  }
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The checks every run makes: the fingerprint matches the reference (the
/// first run sets it), the run did work, and the counter registry agrees
/// with the aggregate with nothing lost.
bool check_run(const std::string& what, const exp::aggregate_metrics& aggregate,
               const obs::registry* registry,
               std::optional<std::uint64_t>& reference, run_log& log) {
  const std::uint64_t fp = aggregate.fingerprint();
  if (!reference) reference = fp;
  bool ok = log.expect(fp == *reference, what + ": fingerprint " + hex(fp) +
                                             " differs from the reference " +
                                             hex(*reference));
  ok = log.expect(aggregate.requests > 0 &&
                      aggregate.successes <= aggregate.requests,
                  what + ": no requests completed") &&
       ok;
  if (registry != nullptr) {
    const std::uint64_t requests = registry->get(obs::counter::sdn_requests);
    const std::uint64_t ended = registry->get(obs::counter::sdn_successes) +
                                registry->get(obs::counter::sdn_failures);
    ok = log.expect(requests == aggregate.requests,
                    what + ": registry sdn_requests " +
                        std::to_string(requests) + " != aggregate requests " +
                        std::to_string(aggregate.requests)) &&
         ok;
    ok = log.expect(requests == ended,
                    what + ": lost requests (sdn_requests " +
                        std::to_string(requests) + " != successes + failures " +
                        std::to_string(ended) + ")") &&
         ok;
  }
  return ok;
}

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool listed = false;  ///< named in BENCHMARK.json
  bool exact = false;   ///< a deterministic work count
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of one traced run; `untraced_wall_s` is the
/// median wall of the timed runs.
std::vector<metric> per_layer(const traced_result& t, double untraced_wall_s) {
  const obs::registry& r = t.registry;
  const auto count = [&](obs::counter c) {
    return static_cast<double>(r.get(c));
  };
  const double requests = static_cast<double>(total_requests(t.aggregate));
  const obs::series_stats& depth = r.stats(obs::series::ps_queue_depth);
  return {
      {"system.setup_ms", 1e3 * t.setup_s, "ms", true, false},
      {"system.advance_ms", 1e3 * t.advance_s, "ms", true, false},
      {"system.advance_ns_per_request", ratio(1e9 * t.advance_s, requests),
       "ns/req", true, false},
      {"system.boundary_ms", 1e3 * t.boundary_s, "ms", true, false},
      {"system.boundary_ms_max", 1e3 * t.boundary_max_s, "ms", true, false},
      {"system.boundary_share_pct", 100.0 * ratio(t.boundary_s, t.wall_s), "%",
       true, false},
      {"system.finish_ms", 1e3 * t.finish_s, "ms", true, false},
      {"exp.merge_ms", 1e3 * t.merge_s, "ms", true, false},
      {"exp.round_imbalance", ratio(t.round_max_sum_s, t.round_mean_sum_s),
       "ratio", true, false},
      {"fleet.coordinate_ms", 1e3 * t.coordinate_s, "ms", false, false},
      {"fleet.reallocate_ms", 1e3 * t.reallocate_s, "ms", false, false},
      {"fleet.apply_quota_ms", 1e3 * t.apply_quota_s, "ms", false, false},
      {"bench.traced_wall_ms", 1e3 * t.wall_s, "ms", false, false},
      {"bench.attributed_pct", 100.0 * ratio(t.attributed_s(), t.wall_s), "%",
       true, false},
      {"bench.trace_overhead_pct",
       100.0 * (ratio(t.wall_s, untraced_wall_s) - 1.0), "%", true, false},
      {"sim.events", static_cast<double>(t.sim_events), "count", true, true},
      {"sim.events_per_request",
       ratio(static_cast<double>(t.sim_events), requests), "count/req", true,
       true},
      {"sdn.requests", count(obs::counter::sdn_requests), "count", false, true},
      {"sdn.failures", count(obs::counter::sdn_failures), "count", true, true},
      {"sdn.timeouts", count(obs::counter::sdn_timeouts), "count", true, true},
      {"sdn.retries", count(obs::counter::sdn_retries), "count", true, true},
      {"sdn.local_fallbacks", count(obs::counter::sdn_local_fallbacks), "count",
       true, true},
      {"cloud.ps_completion_events_per_job",
       ratio(count(obs::counter::ps_completion_events),
             count(obs::counter::ps_completions)),
       "count/job", true, true},
      {"cloud.ps_spurious_wakes", count(obs::counter::ps_spurious_wakes),
       "count", true, true},
      {"cloud.ps_queue_depth_mean", depth.mean(), "jobs", true, true},
      {"cloud.ps_queue_depth_max", depth.max, "jobs", true, true},
      {"cloud.instances_at_boundary_mean",
       ratio(static_cast<double>(t.instances_at_boundary),
             static_cast<double>(t.boundaries)),
       "count", true, true},
      {"cloud.background_jobs",
       static_cast<double>(t.aggregate.background_submitted), "count", false,
       true},
      {"trace.slot_users_mean",
       ratio(static_cast<double>(t.slot_users),
             static_cast<double>(t.slot_reports)),
       "count", true, true},
      {"ilp.solves", count(obs::counter::ilp_solves), "count", true, true},
      {"ilp.bb_nodes", count(obs::counter::ilp_bb_nodes), "count", true, true},
      {"ilp.root_pivots", count(obs::counter::ilp_root_pivots), "count", true,
       true},
      {"fault.preemptions", count(obs::counter::fault_preemptions), "count",
       false, true},
      {"fault.cold_starts", count(obs::counter::fault_cold_starts), "count",
       false, true},
  };
}

std::string metrics_object(const std::vector<metric>& metrics,
                           bool listed_only) {
  std::string out = "{";
  for (const metric& m : metrics) {
    if (listed_only && !m.listed) continue;
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (!listed_only) {
      out += std::string{", \"listed\": "} + (m.listed ? "true" : "false") +
             ", \"exact\": " + (m.exact ? "true" : "false");
    }
    out += "}";
  }
  return out + "}";
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + number(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: mca_bench --workload NAME [--seed N] "
                 "[--seconds T | --repeat R] [--trace 0|1] [--smoke] "
                 "[--detail FILE]\n");
    return 2;
  }
  const std::size_t cpus = usable_cpus();
  const std::optional<mca_bench::workload> maybe_w =
      make_workload(opt.workload, opt.seed, opt.smoke, cpus);
  if (!maybe_w) {
    std::fprintf(stderr, "mca_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const mca_bench::workload& w = *maybe_w;
  const tasks::task_pool tasks;
  exp::thread_pool pool{w.jobs};
  run_log log;
  std::optional<std::uint64_t> reference;
  std::optional<exp::aggregate_metrics> model;

  {
    std::optional<exp::thread_pool> serial;
    if (w.serial_warmup) serial.emplace(1);
    log.attempt(w.name + " warm-up run", [&] {
      run_result r = run_production(w, tasks, serial ? *serial : pool);
      const bool ok = check_run(w.name + " warm-up run", r.aggregate,
                                r.registry ? &*r.registry : nullptr, reference,
                                log);
      model = std::move(r.aggregate);
      return ok;
    });
  }

  const double window_s = opt.seconds * (opt.trace ? 0.5 : 1.0);
  const auto in_window = [&, start = std::chrono::steady_clock::now()] {
    return opt.repeat == 0 &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() < window_s;
  };
  const std::size_t min_runs =
      opt.repeat != 0 ? opt.repeat : (opt.trace ? 2 : 3);
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> setups;
  double rss_mb = 0.0;
  for (std::size_t i = 0; i < min_runs || in_window(); ++i) {
    const std::string what = w.name + " timed run " + std::to_string(i + 1);
    log.attempt(what, [&] {
      const run_result r = run_production(w, tasks, pool);
      if (!check_run(what, r.aggregate, r.registry ? &*r.registry : nullptr,
                     reference, log)) {
        return false;
      }
      walls.push_back(r.wall_s);
      rates.push_back(static_cast<double>(total_requests(r.aggregate)) /
                      r.wall_s);
      return true;
    });
    // The peak of one warm-up and one timed run: independent of how many
    // runs fit in the window, and taken before the set-up samples, which
    // build scenarios on the main thread's allocator arena.
    if (i == 0) rss_mb = peak_rss_mb();
    // Set-up samples follow every timed run, so their median spans the
    // same stretch of host time as the throughput median does.
    const double budget_s = kSetupShare * (walls.empty() ? 0.0 : walls.back());
    double spent_s = 0.0;
    do {
      log.attempt(w.name + " set-up sample", [&] {
        setups.push_back(setup_seconds(w, tasks, pool));
        spent_s += setups.back();
        return true;
      });
    } while (spent_s > 0.0 && spent_s < budget_s);
  }

  std::vector<std::vector<metric>> traced_runs;
  if (opt.trace) {
    const double untraced_wall_s = median(walls);
    const auto start = std::chrono::steady_clock::now();
    do {
      const std::string what =
          w.name + " traced run " + std::to_string(traced_runs.size() + 1);
      log.attempt(what, [&] {
        const traced_result t = run_traced(w, tasks, pool);
        bool ok = check_run(what, t.aggregate, &t.registry, reference, log);
        std::vector<metric> layers = per_layer(t, untraced_wall_s);
        const double attributed = 100.0 * ratio(t.attributed_s(), t.wall_s);
        ok = log.expect(attributed >= kMinAttributedPct,
                        what + ": timed calls cover only " +
                            number(attributed) + "% of the traced wall") &&
             ok;
        if (!traced_runs.empty()) {
          for (std::size_t m = 0; m < layers.size(); ++m) {
            if (!layers[m].exact) continue;
            ok = log.expect(layers[m].value == traced_runs.front()[m].value,
                            what + ": " + layers[m].name + " " +
                                number(layers[m].value) +
                                " differs from the first traced run's " +
                                number(traced_runs.front()[m].value)) &&
                 ok;
          }
        }
        traced_runs.push_back(std::move(layers));
        return ok;
      });
    } while (opt.repeat == 0 &&
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                     .count() < window_s);
  }

  // Each metric is the median over the runs that produced it.
  const std::vector<metric> end_to_end{
      {"requests_per_s", median(rates), "req/s", true, false},
      {"setup_s", median(setups), "s", true, false},
      {"peak_rss_mb", rss_mb, "MB", true, false},
  };
  std::vector<metric> layers;
  if (!traced_runs.empty()) {
    layers = traced_runs.front();
    for (std::size_t m = 0; m < layers.size(); ++m) {
      std::vector<double> values;
      for (const auto& run : traced_runs) values.push_back(run[m].value);
      layers[m].value = median(std::move(values));
    }
  }

  const bool advisory = !kNdebug || kSanitized;
  std::printf("# %s seed %llu jobs %zu nproc %zu hardware_concurrency %u "
              "compiler '%s' ndebug %d sanitized %d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(w.spec.base_seed),
              w.jobs, cpus, std::thread::hardware_concurrency(), kCompiler,
              kNdebug ? 1 : 0, kSanitized ? 1 : 0,
              advisory ? " (advisory: timings not comparable)" : "");
  const auto line = [&](const std::string& name, const std::string& value,
                        const char* unit) {
    std::printf("%s %s %s %s\n", w.name.c_str(), name.c_str(), value.c_str(),
                unit);
  };
  for (const metric& m : end_to_end) {
    line(m.name, number(m.value), m.unit.c_str());
  }
  line("runs_attempted", std::to_string(log.attempted()), "count");
  line("runs_failed", std::to_string(log.failed()), "count");
  std::string model_json = "{}";
  if (model) {
    const double p50 = model->latency.quantile_interpolated(0.50);
    const double p99 = model->latency.quantile_interpolated(0.99);
    const double acceptance = 100.0 * model->acceptance_rate();
    const double cost = model->cost_usd.sum();
    line("fingerprint", hex(model->fingerprint()), "hex");
    line("requests", std::to_string(model->requests), "count");
    line("total_requests", std::to_string(total_requests(*model)), "count");
    line("acceptance_pct", number(acceptance), "%");
    line("p50_response_ms", number(p50), "ms");
    line("p99_response_ms", number(p99), "ms");
    line("cost_usd", number(cost), "usd");
    model_json = "{\"fingerprint\": " + quoted(hex(model->fingerprint())) +
                 ", \"requests\": " + std::to_string(model->requests) +
                 ", \"total_requests\": " +
                 std::to_string(total_requests(*model)) +
                 ", \"acceptance_pct\": " + number(acceptance) +
                 ", \"p50_response_ms\": " + number(p50) +
                 ", \"p99_response_ms\": " + number(p99) +
                 ", \"cost_usd\": " + number(cost) + "}";
  }
  for (const metric& m : layers) line(m.name, number(m.value), m.unit.c_str());

  if (!opt.detail.empty()) {
    std::string failures = "[";
    for (const std::string& f : log.failures()) {
      failures += (failures.size() > 1 ? ", " : "") + quoted(f);
    }
    failures += "]";
    const std::string json =
        "{\"workload\": " + quoted(w.name) +
        ", \"seed\": " + std::to_string(w.spec.base_seed) +
        ", \"smoke\": " + (opt.smoke ? "true" : "false") +
        ", \"jobs\": " + std::to_string(w.jobs) +
        ", \"host\": {\"nproc\": " + std::to_string(cpus) +
        ", \"hardware_concurrency\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"compiler\": " + quoted(kCompiler) +
        ", \"ndebug\": " + (kNdebug ? "true" : "false") +
        ", \"sanitized\": " + (kSanitized ? "true" : "false") + "}" +
        ", \"advisory\": " + (advisory ? "true" : "false") +
        ", \"runs_attempted\": " + std::to_string(log.attempted()) +
        ", \"runs_failed\": " + std::to_string(log.failed()) +
        ", \"failures\": " + failures +
        ", \"samples\": {\"requests_per_s\": " + number_list(rates) +
        ", \"setup_s\": " + number_list(setups) +
        ", \"peak_rss_mb\": " + number_list({rss_mb}) + "}" +
        ", \"end_to_end\": " + metrics_object(end_to_end, false) +
        ", \"model\": " + model_json +
        ", \"per_layer\": " + metrics_object(layers, false) + "}\n";
    std::FILE* f = std::fopen(opt.detail.c_str(), "w");
    const bool written = f != nullptr && std::fputs(json.c_str(), f) >= 0;
    if (f != nullptr) std::fclose(f);
    log.expect(written, "cannot write " + opt.detail);
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              log.correct() ? "true" : "false", log.attempted(), log.failed(),
              metrics_object(opt.trace ? layers : end_to_end, true).c_str());
  return log.correct() ? 0 : 1;
}
