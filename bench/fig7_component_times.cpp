// Fig. 7 — where a request's time goes.
//
// (b) Per acceleration level 1-4 (c4.8xlarge joins as level 4): the mean
//     T_response and its decomposition T1 (mobile<->front-end over LTE),
//     T2 (front-end handling + internal hops) and T_cloud, measured with
//     30 concurrent users (§VI-B.1).
// (c) Stability: the standard deviation of response time per level as
//     concurrent load rises 1..100.
//
// Paper statements checked: front-end overhead ≈150 ms, T1+T2 < 1 s,
// T_cloud dominates and shrinks with the level.
#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "core/sdn_accelerator.h"
#include "exp/curves.h"
#include "exp/runner.h"
#include "net/operators.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/csv.h"
#include "workload/generator.h"

namespace {

const std::map<mca::group_id, std::string> kLevels = {
    {1, "t2.nano"}, {2, "t2.large"}, {3, "m4.10xlarge"}, {4, "c4.8xlarge"}};

struct component_stats {
  mca::util::running_stats total, t1, t2, cloud;
};

/// Folds every successful response into its level's component means.
class component_sink final : public mca::core::response_sink {
 public:
  void on_response(const mca::workload::offload_request&,
                   const mca::core::request_timing& t,
                   mca::group_id group) override {
    if (!t.success) return;
    auto& c = components[group];
    c.total.add(t.total());
    c.t1.add(t.t1());
    c.t2.add(t.t2());
    c.cloud.add(t.cloud);
  }

  std::map<mca::group_id, component_stats> components;
};

}  // namespace

int main() {
  using namespace mca;
  bench::check_list checks;
  tasks::task_pool pool;

  // --- Fig. 7b: component means at 30 concurrent users per level ---
  component_sink sink;
  const auto& components = sink.components;

  {
    sim::simulation sim;
    util::rng rng{777};
    cloud::backend_pool backend{sim, rng.fork()};
    for (const auto& [group, type] : kLevels) {
      backend.launch(group, cloud::type_by_name(type));
    }
    trace::log_store log;
    core::sdn_config config;
    core::sdn_accelerator sdn{sim,  backend, net::default_lte_model(),
                              &log, config,  rng.fork()};
    sdn.set_response_sink(&sink);

    // 30 concurrent users fire the static minimax at each level, several
    // rounds with cool-downs.
    request_id next_id = 0;
    const auto minimax = pool.static_minimax_request();
    for (const auto& [group, type] : kLevels) {
      for (int round = 0; round < 8; ++round) {
        const double burst_at =
            static_cast<double>(group) * 1e7 + round * 60'000.0;
        for (int u = 0; u < 30; ++u) {
          sim.schedule_at(burst_at, [&, group, u] {
            workload::offload_request request;
            request.id = ++next_id;
            request.user = static_cast<user_id>(u);
            request.work = minimax;
            request.created_at = sim.now();
            sdn.submit(request, group, 1.0);
          });
        }
      }
    }
    sim.run();

    bench::section("Fig. 7b data: component means per level (30 users)");
    util::csv_writer csv{std::cout, {"level", "Tresponse_ms", "T1_ms",
                                     "T2_ms", "Tcloud_ms"}};
    for (const auto& [group, c] : components) {
      csv.row_values(static_cast<unsigned>(group), c.total.mean(),
                     c.t1.mean(), c.t2.mean(), c.cloud.mean());
    }
  }

  // --- Fig. 7c: response-time SD per level vs concurrent users ---
  // The same single-server sweep as Fig. 5, shared via the experiment
  // runner; the four levels fan out over the pool.
  bench::section("Fig. 7c data: response-time SD per level vs load");
  std::map<group_id, std::vector<std::pair<std::size_t, double>>> sd_curves;
  {
    const std::vector<std::pair<group_id, std::string>> levels{
        kLevels.begin(), kLevels.end()};
    exp::thread_pool workers;
    const auto curves =
        exp::parallel_map(workers, levels.size(), [&](std::size_t i) {
          exp::load_curve_config config;
          config.rounds = 6;
          config.seed = 778 + static_cast<std::uint64_t>(levels[i].first);
          return exp::response_vs_users(levels[i].second,
                                        pool.static_minimax_request(), config);
        });
    util::csv_writer csv{std::cout, {"level", "users", "stddev_ms"}};
    for (std::size_t i = 0; i < levels.size(); ++i) {
      for (const auto& point : curves[i]) {
        sd_curves[levels[i].first].emplace_back(point.users,
                                                point.response.stddev);
        csv.row_values(static_cast<unsigned>(levels[i].first), point.users,
                       point.response.stddev);
      }
    }
  }

  // --- shape checks ---
  const auto& level1 = components.at(1);
  const auto& level4 = components.at(4);
  checks.expect(std::abs(level1.t2.mean() - 156.0) < 25.0,
                "front-end handling (within T2) is ~150 ms",
                bench::ratio_detail("T2 mean [ms]", level1.t2.mean()));
  bool t1t2_under_second = true;
  for (const auto& [group, c] : components) {
    if (c.t1.mean() + c.t2.mean() >= 1'000.0) t1t2_under_second = false;
  }
  checks.expect(t1t2_under_second, "total communication T1+T2 < 1 second",
                bench::ratio_detail("L1 T1+T2 [ms]",
                                    level1.t1.mean() + level1.t2.mean()));
  checks.expect(level1.cloud.mean() >
                    level1.t1.mean() + level1.t2.mean(),
                "Tcloud is the dominant component at level 1",
                bench::ratio_detail("Tcloud/T1+T2",
                                    level1.cloud.mean() /
                                        (level1.t1.mean() + level1.t2.mean())));
  bool monotone = true;
  for (group_id g = 2; g <= 4; ++g) {
    if (components.at(g).cloud.mean() >=
        components.at(g - 1).cloud.mean()) {
      monotone = false;
    }
  }
  checks.expect(monotone, "Tcloud decreases with every acceleration level",
                bench::ratio_detail("L1 vs L4 Tcloud [ms]",
                                    level1.cloud.mean() -
                                        level4.cloud.mean()));
  checks.expect(level4.total.mean() < level1.total.mean(),
                "c4.8xlarge (level 4) beats every lower level",
                bench::ratio_detail("L1/L4 Tresponse",
                                    level1.total.mean() /
                                        level4.total.mean()));
  // 7c: higher levels are more stable under load.
  const double l1_sd_100 = sd_curves[1].back().second;
  const double l4_sd_100 = sd_curves[4].back().second;
  checks.expect(l4_sd_100 < l1_sd_100,
                "higher acceleration levels are more stable (SD @100 users)",
                bench::ratio_detail("L1/L4 SD", l1_sd_100 / l4_sd_100));
  return checks.finish("fig7_component_times");
}
