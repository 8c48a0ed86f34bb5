// Ablation (design-choice check) — the t2 CPU-credit model.
//
// The paper benchmarks t2 burstable instances with one-minute cool-downs
// and never observes credit exhaustion, so the simulator ships with the
// credit model OFF.  This bench justifies that default: a t2.small facing
// a *sustained* 70%-utilization stream behaves identically with and
// without the model for the first stretch, then collapses to its baseline
// share once the bank empties — credits only matter for workloads the
// paper does not run.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "cloud/instance.h"
#include "exp/runner.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/csv.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace {

/// Adds each completion to the window its job arrived in (the tag).
class window_sink final : public mca::cloud::completion_sink {
 public:
  explicit window_sink(std::vector<mca::util::running_stats>& windows)
      : windows_{windows} {}

  void on_completion(std::uint32_t window, std::uint32_t /*epoch*/,
                     mca::util::time_ms service, bool /*ok*/) override {
    if (window < windows_.size()) windows_[window].add(service);
  }

 private:
  std::vector<mca::util::running_stats>& windows_;
};

/// Mean in-server response per 10-minute window over a 3-hour sustained
/// stream; returns {window -> mean_ms} plus the throttle flag at the end.
struct run_result {
  std::vector<double> window_mean_ms;
  bool throttled_at_end = false;
};

run_result run(bool enable_credits) {
  using namespace mca;
  sim::simulation sim;
  tasks::task_pool pool;
  util::rng rng{4321};
  cloud::instance::options opts;
  opts.enable_cpu_credits = enable_credits;
  opts.initial_credits_core_ms = 30.0 * 60'000.0;  // 30 credit-minutes
  cloud::instance server{sim, 1, cloud::type_by_name("t2.small"), rng.fork(),
                         opts};

  constexpr double kWindow = 600'000.0;  // 10 minutes
  std::vector<util::running_stats> windows(18);
  window_sink sink{windows};
  server.set_completion_sink(&sink);
  workload::interarrival_config load;
  load.devices = 1;
  load.active_duration = util::hours(3);
  // ~25 req/s * 28 wu = 700 wu/s on a 1000 wu/s core: sustained 70%.
  workload::interarrival_generator gen{
      sim, workload::random_pool_source(pool),
      [&](const workload::offload_request& r) {
        const auto window = static_cast<std::uint32_t>(sim.now() / kWindow);
        server.submit(r.work.work_units(), window);
      },
      workload::exponential_interarrival(25.0), load, rng.fork()};
  sim.run();

  run_result result;
  for (const auto& w : windows) {
    result.window_mean_ms.push_back(w.mean());
  }
  result.throttled_at_end = server.throttled();
  return result;
}

}  // namespace

int main() {
  using namespace mca;
  bench::check_list checks;

  // The two credit modes are independent 3-hour runs; overlap them.
  exp::thread_pool workers{2};
  const auto results = exp::parallel_map(
      workers, 2, [](std::size_t i) { return run(i == 0); });
  const auto& with_credits = results[0];
  const auto& without_credits = results[1];

  bench::section("mean response per 10-minute window (t2.small, 70% load)");
  util::csv_writer csv{std::cout,
                       {"window", "credits_on_ms", "credits_off_ms"}};
  for (std::size_t w = 0; w < with_credits.window_mean_ms.size(); ++w) {
    csv.row_values(w, with_credits.window_mean_ms[w],
                   without_credits.window_mean_ms[w]);
  }

  const double early_on = with_credits.window_mean_ms[1];
  const double early_off = without_credits.window_mean_ms[1];
  const double late_on = with_credits.window_mean_ms[16];
  const double late_off = without_credits.window_mean_ms[16];

  checks.expect(std::abs(early_on - early_off) < early_off * 0.25,
                "while credits last the two models agree",
                bench::ratio_detail("on/off early", early_on / early_off));
  checks.expect(late_on > 5.0 * late_off,
                "after exhaustion the credit model collapses to baseline",
                bench::ratio_detail("on/off late", late_on / late_off));
  checks.expect(with_credits.throttled_at_end,
                "credit balance is exhausted by sustained load",
                "throttled at t=3h");
  checks.expect(!without_credits.throttled_at_end,
                "paper-mode (credits off) never throttles", "never throttled");
  // The paper's methodology (bursts + cool-downs) stays out of throttle
  // territory, which is why credits-off is the faithful default.
  return checks.finish("ablation_credits");
}
