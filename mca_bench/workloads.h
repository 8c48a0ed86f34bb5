// mca_bench workloads and their production-entry-point runs.
//
// A workload is one scenario spec plus the entry point that runs it:
// fleet::run_fleet for the three fleet workloads, exp::run_scenario for
// closed_loop_bg.  The spec is generated here from the seed alone; the
// program receives only the generated spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/system.h"
#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "fleet/shard.h"
#include "obs/registry.h"
#include "tasks/task.h"

namespace mca_bench {

enum class entry_point { fleet, scenario };

struct workload {
  std::string name;
  entry_point entry = entry_point::fleet;
  mca::exp::scenario_spec spec;
  std::size_t shards = 0;        ///< fleet: shard count
  std::size_t replications = 0;  ///< scenario: replication count
  std::size_t jobs = 1;          ///< pool size of every timed run
  /// The warm-up run goes through a 1-worker pool, so every parallel run
  /// is checked against the serial fingerprint.
  bool serial_warmup = false;
};

/// Builds workload `name` (nullopt when unknown).  `seed` overrides the
/// default seed; `smoke` shrinks the workload to about 1/20 of its size;
/// `cpus` caps the parallel workload's pool.
std::optional<workload> make_workload(std::string_view name,
                                      std::optional<std::uint64_t> seed,
                                      bool smoke, std::size_t cpus);

/// Simulated requests of a run: foreground offloads issued plus
/// background PS jobs submitted.  Deterministic.
std::size_t total_requests(const mca::exp::aggregate_metrics& aggregate);

/// One run through the workload's production entry point.
struct run_result {
  double wall_s = 0.0;
  mca::exp::aggregate_metrics aggregate;
  /// The merged counter registry (fleet runs only: run_scenario does not
  /// return one).
  std::optional<mca::obs::registry> registry;
};

/// Runs the workload once through fleet::run_fleet or exp::run_scenario
/// and times the call.  Throws on a failed replication.
run_result run_production(const workload& w, const mca::tasks::task_pool& tasks,
                          mca::exp::thread_pool& pool);

/// Host seconds before simulated time starts, for one set-up: all shards
/// built and begun on `pool` (fleet), or every replication's config
/// synthesis + system construction + begin (scenario).
double setup_seconds(const workload& w, const mca::tasks::task_pool& tasks,
                     mca::exp::thread_pool& pool);

/// Shard `k` of a fleet workload, built and begun as run_fleet does.
std::unique_ptr<mca::fleet::shard> make_shard(
    const workload& w, const mca::tasks::task_pool& tasks, std::size_t k);

/// Replication `index` of a scenario workload, materialized and begun as
/// run_scenario does (no raw request series, no retained trace records).
std::unique_ptr<mca::core::offloading_system> make_replication(
    const workload& w, const mca::tasks::task_pool& tasks, std::size_t index);

}  // namespace mca_bench
