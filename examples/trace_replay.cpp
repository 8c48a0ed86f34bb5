// Trace workflow: record, export, import, replay.
//
// The paper's authors published their traces alongside the system; this
// example shows the same loop: run a deployment, export its request log
// as CSV, re-import it, and drive a *new* deployment with the recorded
// event times (`workload::replay_generator`).  Useful for regression
// comparisons: same arrival process, different backend or policy.
#include <cstdio>
#include <sstream>

#include "cloud/backend_pool.h"
#include "core/sdn_accelerator.h"
#include "net/operators.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "trace/log_store.h"
#include "trace/trace_io.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace {

/// Keeps the Code Offloader's request log (§IV-A): one record per
/// response the cloud served, built from the response sink.  The
/// simulated devices report no charge, so every record logs 0.9.
class log_sink final : public mca::core::response_sink {
 public:
  explicit log_sink(mca::trace::log_store& log) : log_{log} {}
  void on_response(const mca::workload::offload_request& r,
                   const mca::core::request_timing& t,
                   mca::group_id group) override {
    if (t.success && !t.local) {
      log_.append({r.created_at, r.user, group, 0.9, t.total()});
    }
  }

 private:
  mca::trace::log_store& log_;
};

}  // namespace

int main() {
  using namespace mca;
  tasks::task_pool pool;

  // --- phase 1: a short live run that produces a trace -----------------
  trace::log_store recorded;
  {
    sim::simulation sim;
    util::rng rng{55};
    cloud::backend_pool backend{sim, rng.fork()};
    backend.launch(1, cloud::type_by_name("t2.medium"));
    core::sdn_accelerator sdn{sim, backend, net::default_lte_model(), {},
                              rng.fork()};
    log_sink sink{recorded};
    sdn.set_response_sink(&sink);
    workload::interarrival_config load;
    load.devices = 40;
    load.active_duration = util::minutes(10);
    // ~80 req/s of pool tasks: the t2.medium runs near 90% utilization,
    // so the recorded trace carries real queueing delay.
    workload::interarrival_generator gen{
        sim, workload::random_pool_source(pool),
        [&](const workload::offload_request& r) { sdn.submit(r, 1); },
        workload::exponential_interarrival(2.0), load, rng.fork()};
    sim.run();
  }
  std::printf("phase 1: recorded %zu requests\n", recorded.size());

  // --- phase 2: export + import (normally a file; a stream here) -------
  std::stringstream csv;
  trace::write_csv(recorded, csv);
  const auto imported = trace::read_csv(csv);
  std::printf("phase 2: CSV round trip, %zu records restored\n",
              imported.size());

  // --- phase 3: replay the exact arrivals against a faster backend -----
  std::vector<workload::replay_event> events;
  for (const auto& r : imported.records()) {
    events.push_back({r.timestamp, r.user});
  }
  sim::simulation sim;
  util::rng rng{56};
  cloud::backend_pool backend{sim, rng.fork()};
  backend.launch(1, cloud::type_by_name("m4.4xlarge"));
  trace::log_store replay_log;
  core::sdn_accelerator sdn{sim, backend, net::default_lte_model(), {},
                            rng.fork()};
  log_sink sink{replay_log};
  sdn.set_response_sink(&sink);
  workload::replay_generator replay{
      sim, workload::random_pool_source(pool),
      [&](const workload::offload_request& r) { sdn.submit(r, 1); },
      std::move(events), rng.fork()};
  sim.run();

  util::running_stats original;
  for (const auto& r : imported.records()) original.add(r.rtt_ms);
  util::running_stats upgraded;
  for (const auto& r : replay_log.records()) upgraded.add(r.rtt_ms);
  std::printf("phase 3: replayed %llu requests on m4.4xlarge\n",
              static_cast<unsigned long long>(replay.emitted()));
  std::printf("\nmean response  t2.medium: %6.0f ms   m4.4xlarge: %6.0f ms "
              "(%.2fx faster)\n",
              original.mean(), upgraded.mean(),
              original.mean() / upgraded.mean());
  return 0;
}
