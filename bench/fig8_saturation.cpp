// Fig. 8 — workload management at the front-end and under saturation.
//
// (a) Routing time of the SDN-accelerator per acceleration group: ~250
//     requests per group under 30-user concurrency; the paper reports
//     ≈150 ms regardless of the group.
// (b) One t2.large faces a Poisson arrival stream whose rate doubles
//     every 5 minutes, 1 Hz -> 1024 Hz.  Response time holds until the
//     server's capacity (paper: ~32 Hz), then degrades sharply.
// (c) The success/fail split per arrival rate: beyond the knee a rising
//     share of requests is dropped.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/sdn_accelerator.h"
#include "exp/thread_pool.h"
#include "net/operators.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/csv.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace {

using namespace mca;

/// Fig. 8b/8c accumulator: one arrival-rate phase of the doubling run.
struct phase_stats {
  util::running_stats response;
  std::size_t arrivals = 0;
  std::size_t successes = 0;
};

/// Fig. 8a collector: every submitted request reaches the sink exactly
/// once, carrying its routing time; kept per group with the request id.
class routing_sink final : public core::response_sink {
 public:
  void on_response(const workload::offload_request& request,
                   const core::request_timing& timing,
                   group_id group) override {
    by_group[group].push_back({request.id, timing.routing});
  }

  std::map<group_id, std::vector<std::pair<request_id, double>>> by_group;
};

/// Fig. 8b/8c collector: a job's tag is the arrival rate (Hz) of the
/// phase it arrived in; its completion counts there as a success.
class phase_sink final : public cloud::completion_sink {
 public:
  explicit phase_sink(std::map<int, phase_stats>& phases) : phases_{phases} {}

  void on_completion(std::uint32_t rate_hz, std::uint32_t /*epoch*/,
                     util::time_ms service, bool /*ok*/) override {
    phase_stats& phase = phases_[static_cast<int>(rate_hz)];
    phase.response.add(service);
    ++phase.successes;
  }

 private:
  std::map<int, phase_stats>& phases_;
};

/// Part (a): routing time per group at the SDN front-end, in arrival
/// (request id) order.
std::map<group_id, std::vector<double>> run_routing_part(
    const tasks::task_pool& pool) {
  std::map<group_id, std::vector<double>> routing;
  {
    sim::simulation sim;
    util::rng rng{88};
    cloud::backend_pool backend{sim, rng.fork()};
    const std::map<group_id, std::string> levels = {{1, "t2.nano"},
                                                    {2, "t2.large"},
                                                    {3, "m4.10xlarge"},
                                                    {4, "c4.8xlarge"}};
    for (const auto& [group, type] : levels) {
      backend.launch(group, cloud::type_by_name(type));
    }
    trace::log_store log;
    routing_sink sink;
    core::sdn_accelerator sdn{sim,  backend, net::default_lte_model(),
                              &log, core::sdn_config{}, rng.fork()};
    sdn.set_response_sink(&sink);
    request_id next_id = 0;
    for (const auto& [group, type] : levels) {
      for (int i = 0; i < 250; ++i) {
        sim.schedule_at(static_cast<double>(group) * 1e7 + (i / 30) * 30'000.0,
                        [&, group] {
                          workload::offload_request request;
                          request.id = ++next_id;
                          request.user = 1;
                          request.work = pool.random_request(rng);
                          request.created_at = sim.now();
                          sdn.submit(request, group, 1.0);
                        });
      }
    }
    sim.run();
    for (group_id g = 1; g <= 4; ++g) {
      auto& samples = sink.by_group[g];
      std::sort(samples.begin(), samples.end());
      std::vector<double>& series = routing[g];
      for (const auto& sample : samples) series.push_back(sample.second);
    }
  }
  return routing;
}

/// Parts (b)/(c): rate doubling against one t2.large.
std::map<int, phase_stats> run_saturation_part(const tasks::task_pool& pool) {
  std::map<int, phase_stats> phases;  // key: arrival rate in Hz
  {
    sim::simulation sim;
    util::rng rng{89};
    cloud::instance server{sim, cloud::type_by_name("t2.large"), rng.fork()};
    phase_sink sink{phases};
    server.set_completion_sink(&sink);
    workload::rate_doubling_config schedule;
    schedule.initial_hz = 1.0;
    schedule.final_hz = 1024.0;
    schedule.phase_length = util::minutes(5);
    // Heavy pool mix: the paper does not state its Fig. 8 task mix; the
    // max-size mix puts the t2.large knee near the reported 32 Hz, which
    // the saturation checks below assert.
    workload::rate_doubling_generator gen{
        sim, workload::heavy_pool_source(pool),
        [&](const workload::offload_request& r) {
          const int rate = static_cast<int>(gen.current_rate_hz());
          auto& phase = phases[rate];
          ++phase.arrivals;
          const bool accepted = server.submit(
              r.work.work_units(), static_cast<std::uint32_t>(rate));
          (void)accepted;
        },
        schedule, rng.fork()};
    sim.run();
  }
  return phases;
}

}  // namespace

int main() {
  bench::check_list checks;
  tasks::task_pool pool;

  // Parts (a) and (b/c) are independent experiments; overlap them on the
  // pool, then print in figure order.
  std::map<group_id, std::vector<double>> routing;
  std::map<int, phase_stats> phases;
  {
    exp::thread_pool workers{2};
    exp::parallel_for(workers, 2, [&](std::size_t part) {
      if (part == 0) {
        routing = run_routing_part(pool);
      } else {
        phases = run_saturation_part(pool);
      }
    });
  }

  bench::section("Fig. 8a data: SDN routing time per request, by group");
  {
    util::csv_writer csv{std::cout, {"group", "request", "routing_ms"}};
    for (const auto& [group, samples] : routing) {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        csv.row_values(static_cast<unsigned>(group), i, samples[i]);
      }
    }
  }

  bench::section("Fig. 8b/8c data: response time and success rate vs rate");
  util::csv_writer csv{std::cout, {"arrival_hz", "mean_response_ms",
                                   "success_pct", "fail_pct", "arrivals"}};
  std::map<int, double> success_pct;
  std::map<int, double> mean_response;
  for (const auto& [rate, phase] : phases) {
    const double success =
        phase.arrivals == 0
            ? 0.0
            : 100.0 * static_cast<double>(phase.successes) /
                  static_cast<double>(phase.arrivals);
    success_pct[rate] = success;
    mean_response[rate] = phase.response.mean();
    csv.row_values(rate, phase.response.mean(), success, 100.0 - success,
                   phase.arrivals);
  }

  // ---- shape checks ----
  double routing_mean_all = 0.0;
  std::size_t routing_count = 0;
  bool routing_uniform = true;
  for (const auto& [group, samples] : routing) {
    const double mean = util::mean_of(samples);
    routing_mean_all += mean;
    ++routing_count;
    if (std::abs(mean - 150.0) > 20.0) routing_uniform = false;
  }
  routing_mean_all /= static_cast<double>(routing_count);
  checks.expect(std::abs(routing_mean_all - 150.0) < 15.0,
                "SDN routing overhead is ~150 ms",
                bench::ratio_detail("mean [ms]", routing_mean_all));
  checks.expect(routing_uniform,
                "routing overhead is flat across acceleration groups",
                "all group means within 150 +/- 20 ms");
  checks.expect(mean_response.at(16) < 1'000.0,
                "t2.large holds sub-second responses through 16 Hz",
                bench::ratio_detail("mean @16Hz [ms]", mean_response.at(16)));
  checks.expect(success_pct.at(16) > 99.0,
                "no drops below the knee (16 Hz)",
                bench::ratio_detail("success @16Hz [%]", success_pct.at(16)));
  // The knee: somewhere between 32 and 64 Hz responses blow past 3x the
  // 16 Hz level.
  checks.expect(mean_response.at(64) > 3.0 * mean_response.at(16),
                "responses degrade sharply past the ~32 Hz knee",
                bench::ratio_detail("64Hz/16Hz",
                                    mean_response.at(64) /
                                        mean_response.at(16)));
  checks.expect(success_pct.at(256) < 50.0,
                "most requests dropped far past saturation (256 Hz)",
                bench::ratio_detail("success @256Hz [%]",
                                    success_pct.at(256)));
  checks.expect(success_pct.at(1024) < success_pct.at(128),
                "failure share keeps growing with the arrival rate",
                bench::ratio_detail("success @1024Hz [%]",
                                    success_pct.at(1024)));
  return checks.finish("fig8_saturation");
}
