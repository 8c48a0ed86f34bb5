// Sharded fleet in ~50 lines: the builtin fleet scenario split over four
// shards, provisioned by one coordinator ILP per slot, merged
// deterministically.
//
// Each shard runs its own closed-loop simulation over a quarter of the
// population; at every provisioning-slot boundary the coordinator folds
// the shards' demand digests, solves a single fleet-wide allocation, and
// hands each shard its instance quota.  The merged aggregate (and its
// fingerprint) is bit-identical whatever the pool size — try --jobs 1.
#include <cstdio>

#include "fleet/fleet_runner.h"

int main() {
  using namespace mca;

  tasks::task_pool tasks;
  exp::thread_pool pool;  // one worker per hardware thread

  // The builtin fleet scenario: 400 users, four acceleration groups over
  // seven EC2 tiers, fleet_shards = 4.
  exp::scenario_spec spec;
  for (const auto& builtin : exp::builtin_scenarios()) {
    if (builtin.name == "fleet") spec = builtin;
  }

  std::printf("running '%s': %zu users over %zu shards on %zu workers...\n",
              spec.name.c_str(), spec.user_count, spec.fleet_shards,
              pool.worker_count());
  const fleet::fleet_result result =
      fleet::run_fleet(spec, fleet::fleet_options{}, tasks, pool);

  std::printf("\nper shard:\n%-6s %-10s %-10s %-12s %s\n", "shard", "requests",
              "accepted", "mean [ms]", "cost [$]");
  for (std::size_t k = 0; k < result.per_shard.size(); ++k) {
    const auto& shard = result.per_shard[k];
    std::printf("%-6zu %-10zu %-10zu %-12.0f %.3f\n", k, shard.requests,
                shard.successes, shard.response.mean(), shard.total_cost_usd);
  }

  std::printf("\ncoordination (%zu slots, %zu fleet ILP solves):\n",
              result.slot_count, result.ilp_solves);
  for (const auto& slot : result.slots) {
    if (!slot.solved) {
      std::printf("  slot %zu: no shard predicted yet\n", slot.slot);
      continue;
    }
    std::printf(
        "  slot %zu: fleet demand %.0f users, %zu instances, $%.2f/h, "
        "queue depth %.0f\n",
        slot.slot, slot.fleet_demand, slot.fleet_instances, slot.cost_per_hour,
        slot.queue_depth);
  }

  const auto& merged = result.aggregate;
  std::printf("\nmerged over %zu shards (%.2f s wall, %.1f%% coordination):\n",
              result.shard_count, result.wall_seconds,
              result.coordination_overhead() * 100.0);
  std::printf("  requests   %zu (%.1f%% accepted)\n", merged.requests,
              merged.acceptance_rate() * 100.0);
  std::printf("  response   mean %.0f ms, p95 %.0f ms\n",
              merged.response.mean(),
              merged.latency.quantile_interpolated(0.95));
  std::printf("  cost       $%.3f total\n", merged.cost_usd.sum());
  std::printf("  fingerprint %016llx (bit-identical at any thread count)\n",
              static_cast<unsigned long long>(result.fingerprint()));
  return 0;
}
