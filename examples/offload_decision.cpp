// The §II-A offloading inequality across device classes.
//
// For every device tier and every pool algorithm: how long the task takes
// locally, how long the cloud path is expected to take (LTE + routing +
// level-1 execution), and whether the energy rule says "offload".  This is
// the paper's motivating table — old devices and wearables offload nearly
// everything, flagships barely anything.
#include <cstdio>
#include <vector>

#include "client/device.h"
#include "cloud/instance_type.h"
#include "net/operators.h"
#include "tasks/task.h"
#include "util/stats.h"

int main() {
  using namespace mca;

  tasks::task_pool pool;

  // Expected cloud path: mean LTE RTT + SDN routing + level-1 execution.
  auto lte = net::default_lte_model();
  util::rng rng{31};
  util::running_stats rtt;
  for (int i = 0; i < 20'000; ++i) rtt.add(lte.sample(rng, 12.0));
  const double routing_ms = 150.0;
  const auto& level1 = cloud::type_by_name("t2.nano");

  const std::vector<client::device_class> classes = {
      client::device_class::wearable, client::device_class::budget,
      client::device_class::midrange, client::device_class::flagship};

  for (const auto cls : classes) {
    const client::device_profile device = client::profile_for(cls);
    std::printf("\n=== %s (local speed %.2f wu/ms) ===\n",
                to_string(cls), device.local_speed_wu_per_ms);
    std::printf("%-12s %12s %12s %10s %10s\n", "task", "local[ms]",
                "cloud[ms]", "faster?", "offload?");
    std::size_t offloaded = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto& task = pool.at(i);
      const double work = task.work_units(task.default_size);
      const double local_ms = device.local_execution_ms(work);
      const double cloud_ms = rtt.mean() + routing_ms +
                              (work + cloud::k_spawn_overhead_wu) /
                                  level1.speed_factor;
      const bool faster = device.faster_remotely(work, cloud_ms);
      const bool offload = device.should_offload(work, cloud_ms);
      if (offload) ++offloaded;
      std::printf("%-12s %12.0f %12.0f %10s %10s\n",
                  std::string{task.name}.c_str(), local_ms, cloud_ms,
                  faster ? "yes" : "no", offload ? "yes" : "no");
    }
    std::printf("-> offloads %zu/%zu of the pool\n", offloaded, pool.size());
  }
  std::printf("\n(the weaker the device, the more the cloud pays off — the "
              "paper's premise)\n");
  return 0;
}
