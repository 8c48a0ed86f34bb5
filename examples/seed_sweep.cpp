// Seed-sweep replication: the experiment runner end to end.
//
// Declares the paper's Fig. 9 deployment as a scenario_spec, runs a
// 8-replication seed sweep on the work-stealing pool, and prints the
// per-replication spread next to the deterministically merged aggregate —
// the same machinery fig_suite uses, in ~40 lines.
#include <cstdio>

#include "exp/scenario.h"

int main() {
  using namespace mca;

  tasks::task_pool tasks;

  exp::scenario_spec spec;  // defaults = the paper's Fig. 9 deployment
  spec.name = "fig9_sweep";
  spec.duration = util::hours(1);
  spec.base_seed = 2017;

  const std::size_t replications = 8;
  exp::thread_pool pool;  // one worker per hardware thread
  std::printf("running %zu replications of '%s' on %zu workers...\n\n",
              replications, spec.name.c_str(), pool.worker_count());
  const auto result =
      exp::run_scenario(spec, spec.plan(replications), tasks, pool);

  std::printf("%-5s %-10s %-10s %-12s %-10s %s\n", "rep", "requests",
              "accepted", "mean [ms]", "p95 [ms]", "cost [$]");
  for (std::size_t r = 0; r < result.per_replication.size(); ++r) {
    const auto& rep = result.per_replication[r];
    std::printf("%-5zu %-10zu %-10zu %-12.0f %-10.0f %.3f\n", r, rep.requests,
                rep.successes, rep.response.mean(),
                rep.latency.quantile_interpolated(0.95), rep.total_cost_usd);
  }
  for (const auto& error : result.errors) {
    std::printf("%-5zu FAILED: %s\n", error.index, error.message.c_str());
  }

  const auto& merged = result.aggregate;
  std::printf("\nmerged over %zu replications (%.2f s wall):\n",
              merged.replications, result.wall_seconds);
  std::printf("  requests   %zu (%.1f%% accepted)\n", merged.requests,
              merged.acceptance_rate() * 100.0);
  std::printf("  response   mean %.0f ms, p95 %.0f ms\n",
              merged.response.mean(),
              merged.latency.quantile_interpolated(0.95));
  std::printf("  cost       $%.3f +/- %.3f per replication\n",
              merged.cost_usd.mean(), merged.cost_usd.stddev());
  std::printf("  fingerprint %016llx (bit-identical at any thread count)\n",
              static_cast<unsigned long long>(merged.fingerprint()));
  return result.errors.empty() ? 0 : 1;
}
