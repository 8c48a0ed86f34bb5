#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/bench_clock.h"
#include "fleet/fleet_runner.h"

namespace mca_bench {

using namespace mca;

namespace {

/// The fleet population of fleet_scale's default run: sparse Poisson
/// traffic against four acceleration groups backed by wide EC2 tiers, no
/// background load, four 15-minute slots over one hour.
exp::scenario_spec fleet_spec(std::size_t users, std::size_t shards) {
  exp::scenario_spec spec;
  spec.name = "fleet_scale";
  spec.base_seed = 500'000;
  spec.user_count = users;
  spec.duration = util::hours(1.0);
  spec.slot_length = spec.duration / 4.0;
  spec.tasks = exp::task_mix::static_minimax;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.0005;
  spec.background_requests_per_burst = 0;
  spec.promotion_probability = 1.0 / 50.0;
  spec.groups = {
      {1, "t2.medium", 3, 280.0},    {1, "t2.large", 3, 600.0},
      {1, "m4.4xlarge", 0, 2400.0},  {2, "t2.large", 1, 500.0},
      {2, "m4.4xlarge", 1, 1600.0},  {2, "m4.10xlarge", 0, 4000.0},
      {3, "m4.4xlarge", 1, 1200.0},  {3, "m4.10xlarge", 0, 2400.0},
      {3, "c4.8xlarge", 0, 2000.0},  {4, "m4.10xlarge", 1, 2000.0},
      {4, "c4.8xlarge", 0, 1800.0},
  };
  spec.max_total_instances = 4096;
  spec.fleet_max_total_instances = 4096;
  spec.fleet_shards = shards;
  return spec;
}

/// fleet_scale's fault program at hazard x1: spot hazards on groups 1, 3
/// and 4, an outage of group 2 strictly inside slot 1 (both edges land
/// mid-round, so recovery takes the coordinator's off-cycle re-aim), cold
/// starts, and the timeout / retry / local-fallback path.
exp::scenario_spec faulted(exp::scenario_spec spec) {
  spec.name = "fleet_scale_faults";
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 6.0, 0.0, 6.0, 6.0};
  spec.faults.outages = {{2, spec.slot_length * 1.05, spec.slot_length * 1.9}};
  spec.faults.cold_start_mean_ms = 2'000.0;
  spec.faults.max_retries = 2;
  spec.faults.request_timeout_ms = 30'000.0;
  spec.faults.retry_backoff_base_ms = 100.0;
  spec.faults.retry_backoff_cap_ms = 1'000.0;
  spec.faults.local_fallback = true;
  return spec;
}

/// The fig9_closed_loop scenario (study-session gaps, three groups, 50-job
/// background bursts every 2 s) at `hours` of simulated time.
exp::scenario_spec closed_loop_spec(double hours) {
  for (exp::scenario_spec spec : exp::builtin_scenarios()) {
    if (spec.name != "fig9_closed_loop") continue;
    spec.duration = util::hours(hours);
    return spec;
  }
  throw std::logic_error{"mca_bench: fig9_closed_loop scenario missing"};
}

}  // namespace

std::optional<workload> make_workload(std::string_view name,
                                      std::optional<std::uint64_t> seed,
                                      bool smoke, std::size_t cpus) {
  const std::size_t users = smoke ? 40'000 : 500'000;
  const std::size_t shards = smoke ? 4 : 16;
  workload w;
  w.name = std::string{name};
  if (name == "fleet_steady" || name == "fleet_parallel") {
    w.spec = fleet_spec(users, shards);
    w.shards = shards;
    if (name == "fleet_parallel") {
      w.jobs = std::clamp<std::size_t>(cpus, 1, 4);
      w.serial_warmup = true;
    }
  } else if (name == "fleet_faults") {
    w.spec = faulted(fleet_spec(users, shards));
    w.shards = shards;
  } else if (name == "closed_loop_bg") {
    w.entry = entry_point::scenario;
    w.spec = closed_loop_spec(smoke ? 2.0 : 8.0);
    w.replications = smoke ? 1 : 2;
  } else {
    return std::nullopt;
  }
  if (seed) w.spec.base_seed = *seed;
  return w;
}

std::size_t total_requests(const exp::aggregate_metrics& aggregate) {
  return aggregate.requests +
         static_cast<std::size_t>(aggregate.background_submitted);
}

run_result run_production(const workload& w, const tasks::task_pool& tasks,
                          exp::thread_pool& pool) {
  run_result out;
  if (w.entry == entry_point::fleet) {
    fleet::fleet_options options;
    options.shards = w.shards;
    std::optional<fleet::fleet_result> result;
    out.wall_s = exp::seconds_of([&] {
      result.emplace(fleet::run_fleet(w.spec, options, tasks, pool));
    });
    out.aggregate = std::move(result->aggregate);
    out.registry = std::move(result->observability);
    return out;
  }
  std::optional<exp::scenario_result> result;
  out.wall_s = exp::seconds_of([&] {
    result.emplace(exp::run_scenario(w.spec, w.spec.plan(w.replications),
                                     tasks, pool));
  });
  if (!result->errors.empty()) {
    const exp::replication_error& e = result->errors.front();
    throw std::runtime_error{"replication " + std::to_string(e.index) +
                             " failed: " + e.message};
  }
  out.aggregate = std::move(result->aggregate);
  return out;
}

std::unique_ptr<fleet::shard> make_shard(const workload& w,
                                         const tasks::task_pool& tasks,
                                         std::size_t k) {
  auto s = std::make_unique<fleet::shard>(w.spec, tasks, k, w.shards);
  s->begin();
  return s;
}

std::unique_ptr<core::offloading_system> make_replication(
    const workload& w, const tasks::task_pool& tasks, std::size_t index) {
  const exp::replication_plan plan = w.spec.plan(w.replications);
  util::rng stream =
      exp::replication_context{index, plan.seeds[index]}.stream();
  core::system_config config = exp::make_system_config(w.spec, tasks, stream);
  config.record_request_series = false;
  config.sdn.retain_trace_records = false;
  auto system = std::make_unique<core::offloading_system>(std::move(config),
                                                          tasks);
  system->begin(w.spec.duration);
  return system;
}

double setup_seconds(const workload& w, const tasks::task_pool& tasks,
                     exp::thread_pool& pool) {
  // Teardown happens outside the timed calls: set-up is what a run pays
  // before its first simulated millisecond.
  if (w.entry == entry_point::fleet) {
    std::vector<std::unique_ptr<fleet::shard>> members;
    return exp::seconds_of([&] {
      members = exp::parallel_map(pool, w.shards, [&](std::size_t k) {
        return make_shard(w, tasks, k);
      });
    });
  }
  double seconds = 0.0;
  for (std::size_t i = 0; i < w.replications; ++i) {
    std::unique_ptr<core::offloading_system> system;
    seconds += exp::seconds_of([&] { system = make_replication(w, tasks, i); });
  }
  return seconds;
}

}  // namespace mca_bench
