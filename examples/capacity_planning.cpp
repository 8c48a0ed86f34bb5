// Capacity planning: benchmark the instance catalog, classify it into
// acceleration levels, and let the ILP pick the cheapest fleet.
//
// This is the paper's §IV-C.1 administrator workflow: choose a minimum
// acceleration (a response-time bound), characterize every purchasable
// type against it, then answer "what do I buy for W users per group?".
#include <cstdio>

#include "cloud/instance_type.h"
#include "core/allocator.h"
#include "core/classifier.h"
#include "tasks/task.h"

int main() {
  using namespace mca;

  tasks::task_pool pool;
  core::classifier_config config;
  config.response_bound_ms = 500.0;  // the administrator's minimum level
  config.rounds_per_level = 4;

  std::printf("characterizing %zu instance types (bound: %.0f ms)...\n\n",
              cloud::ec2_catalog().size(), config.response_bound_ms);
  std::printf("%-14s %8s %10s %12s %10s\n", "type", "$/hour", "solo[ms]",
              "capacity", "Ks[req/min]");
  for (const auto& type : cloud::ec2_catalog()) {
    const auto profile = core::characterize_type(type, pool, config);
    std::printf("%-14s %8.4f %10.1f %9zu usr %11.0f\n", type.name.c_str(),
                util::to_usd(type.cost_per_hour), profile.solo_mean_ms,
                profile.capacity_users, profile.capacity_requests_per_min);
  }

  const auto map = core::classify(cloud::ec2_catalog(), pool, config);
  std::printf("\nacceleration groups (0 = demoted anomaly):\n");
  for (const auto& group : map.groups()) {
    std::printf("  level %u (capacity %3.0f users/instance): ", group.id,
                group.capacity_users);
    for (const auto& name : group.type_names) std::printf("%s ", name.c_str());
    std::printf("\n");
  }

  // Plan a fleet: 120 users at level 1, 60 at level 2, 25 at level 3.
  core::allocation_request request;
  request.workload_per_group = {0.0, 120.0, 60.0, 25.0};
  request.candidates_per_group.resize(4);
  for (const auto& group : map.groups()) {
    if (group.id == 0 || group.id > 3) continue;
    for (const auto& name : group.type_names) {
      const auto& type = cloud::type_by_name(name);
      request.candidates_per_group[group.id].push_back(
          {name, group.capacity_users, type.cost_per_hour});
    }
  }
  // Group 0 serves no planned workload; drop it from the model.
  request.workload_per_group.erase(request.workload_per_group.begin());
  request.candidates_per_group.erase(request.candidates_per_group.begin());

  const auto ilp = core::allocate_ilp(request);
  const auto greedy = core::allocate_greedy(request);
  std::printf("\nILP plan ($%.4f/hour, %zu instances):\n",
              util::to_usd(ilp.total_cost_per_hour), ilp.total_instances());
  for (const auto& entry : ilp.entries) {
    std::printf("  level %u: %zu x %s\n", entry.group + 1, entry.count,
                entry.type_name.c_str());
  }
  std::printf("greedy baseline: $%.4f/hour  (ILP saves %.1f%%)\n",
              util::to_usd(greedy.total_cost_per_hour),
              100.0 * (1.0 - static_cast<double>(ilp.total_cost_per_hour) /
                                 static_cast<double>(
                                     greedy.total_cost_per_hour)));
  return 0;
}
