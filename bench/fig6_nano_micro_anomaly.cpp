// Fig. 6 — the t2.nano / t2.micro anomaly.
//
// Amazon sells the micro as the stronger instance (2x the memory, 2x the
// price, free-tier eligible), yet under multi-user offloading load the
// nano serves requests faster and more predictably.  The paper plots mean
// and standard deviation for both types and demotes the micro to group 0.
// Our simulator reproduces the observable anomaly with a CPU-steal +
// jitter model on the micro; the paper leaves the cause unknown, so the
// model targets only the observable effect that the checks below assert.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/classifier.h"
#include "exp/runner.h"
#include "util/csv.h"

int main() {
  using namespace mca;
  bench::check_list checks;
  tasks::task_pool pool;

  core::classifier_config config;
  config.rounds_per_level = 10;
  config.seed = 66;

  const char* type_names[] = {"t2.nano", "t2.micro"};
  exp::thread_pool workers;
  const auto profiles = exp::parallel_map(workers, 2, [&](std::size_t i) {
    return core::characterize_type(cloud::type_by_name(type_names[i]), pool,
                                   config);
  });
  const auto& nano = profiles[0];
  const auto& micro = profiles[1];

  bench::section("Fig. 6 data: nano vs micro, average and SD");
  util::csv_writer csv{std::cout,
                       {"type", "users", "mean_ms", "stddev_ms"}};
  for (const auto& point : nano.curve) {
    csv.row_values("t2.nano", point.users, point.mean_ms, point.stddev_ms);
  }
  for (const auto& point : micro.curve) {
    csv.row_values("t2.micro", point.users, point.mean_ms, point.stddev_ms);
  }

  // Compare the loaded half of the curve (the anomaly emerges under load).
  double nano_loaded_mean = 0.0;
  double micro_loaded_mean = 0.0;
  double nano_loaded_sd = 0.0;
  double micro_loaded_sd = 0.0;
  std::size_t loaded_points = 0;
  for (std::size_t i = 0; i < nano.curve.size(); ++i) {
    if (nano.curve[i].users < 40) continue;
    nano_loaded_mean += nano.curve[i].mean_ms;
    micro_loaded_mean += micro.curve[i].mean_ms;
    nano_loaded_sd += nano.curve[i].stddev_ms;
    micro_loaded_sd += micro.curve[i].stddev_ms;
    ++loaded_points;
  }
  nano_loaded_mean /= static_cast<double>(loaded_points);
  micro_loaded_mean /= static_cast<double>(loaded_points);
  nano_loaded_sd /= static_cast<double>(loaded_points);
  micro_loaded_sd /= static_cast<double>(loaded_points);

  bench::section("anomaly summary (users >= 40)");
  std::printf("t2.nano : mean %7.0f ms, SD %7.0f ms, $%.4f/h\n",
              nano_loaded_mean, nano_loaded_sd,
              cloud::type_by_name("t2.nano").cost_per_hour);
  std::printf("t2.micro: mean %7.0f ms, SD %7.0f ms, $%.4f/h\n",
              micro_loaded_mean, micro_loaded_sd,
              cloud::type_by_name("t2.micro").cost_per_hour);

  checks.expect(micro_loaded_mean > nano_loaded_mean * 1.1,
                "micro is slower than nano under load despite higher price",
                bench::ratio_detail("micro/nano mean",
                                    micro_loaded_mean / nano_loaded_mean));
  checks.expect(micro_loaded_sd > nano_loaded_sd * 1.25,
                "micro is noisier than nano (SD curves)",
                bench::ratio_detail("micro/nano SD",
                                    micro_loaded_sd / nano_loaded_sd));
  checks.expect(micro.capacity_users <= nano.capacity_users,
                "micro's capacity under the bound does not exceed nano's",
                std::to_string(micro.capacity_users) + " vs " +
                    std::to_string(nano.capacity_users));

  // And the consequence: classification sends micro to group 0.
  std::vector<cloud::instance_type> pair = {cloud::type_by_name("t2.nano"),
                                            cloud::type_by_name("t2.micro")};
  const auto map = core::classify(pair, pool, config);
  checks.expect(map.group_of("t2.micro") == 0 && map.group_of("t2.nano") == 1,
                "classifier assigns micro to group 0, nano to level 1",
                "micro->0, nano->1");
  return checks.finish("fig6_nano_micro_anomaly");
}
