// Quickstart: offload the task pool's work through the SDN-accelerator.
//
// Prints the pool's cost table (each task's work units at its default
// size), builds a three-group back-end (the paper's Fig. 9a deployment),
// then offloads the static minimax benchmark at each acceleration level and
// prints the paper's timing decomposition (T1, T2, T_cloud).
#include <cstdio>

#include "cloud/backend_pool.h"
#include "core/sdn_accelerator.h"
#include "net/operators.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "workload/request.h"

namespace {

/// Prints each response's timing decomposition as it reaches the device,
/// and counts the responses the cloud served (the Code Offloader's trace
/// records).
class print_sink final : public mca::core::response_sink {
 public:
  void on_response(const mca::workload::offload_request&,
                   const mca::core::request_timing& t,
                   mca::group_id group) override {
    std::printf("%-8u %9.0f ms %5.0f ms %5.0f ms %7.0f ms\n", group,
                t.total(), t.t1(), t.t2(), t.cloud);
    if (t.success && !t.local) ++logged;
  }

  std::size_t logged = 0;
};

}  // namespace

int main() {
  using namespace mca;

  // The simulator sees a task only as its cost in work units (1 wu = 1 ms
  // on the reference core).
  tasks::task_pool pool;
  std::printf("%-12s %12s %8s\n", "task", "default size", "wu");
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto& task = pool.at(i);
    std::printf("%-12.*s %12u %8.1f\n", static_cast<int>(task.name.size()),
                task.name.data(), task.default_size,
                task.work_units(task.default_size));
  }
  util::rng rng{2024};

  // A simulated deployment: one instance per acceleration group.
  sim::simulation sim;
  cloud::backend_pool backend{sim, rng.fork()};
  backend.launch(1, cloud::type_by_name("t2.nano"));
  backend.launch(2, cloud::type_by_name("t2.large"));
  backend.launch(3, cloud::type_by_name("m4.4xlarge"));

  core::sdn_config config;
  core::sdn_accelerator sdn{sim, backend, net::default_lte_model(), config,
                            rng.fork()};
  print_sink sink;
  sdn.set_response_sink(&sink);

  // Offload the paper's static minimax task once per group.
  std::printf("\n%-8s %12s %8s %8s %10s\n", "group", "Tresponse", "T1", "T2",
              "Tcloud");
  const auto minimax = pool.static_minimax_request();
  request_id next_id = 0;
  for (group_id group = 1; group <= 3; ++group) {
    workload::offload_request request;
    request.id = ++next_id;
    request.user = 7;
    request.work = minimax;
    request.created_at = sim.now();
    sdn.submit(request, group);
    sim.run();
  }

  std::printf("\nlogged %zu trace records; total cloud cost so far: $%.4f\n",
              sink.logged, util::to_usd(backend.total_cost(sim.now())));
  std::printf("quickstart done.\n");
  return 0;
}
