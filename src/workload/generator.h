// Workload generators — the paper's simulator component (§V).
//
// "The simulator creates workload in two different operational modes,
// 1) concurrent and 2) inter-arrival rate."  The concurrent mode stresses a
// server with n simultaneous offloads per round (used to benchmark cloud
// instances, Fig. 4); the inter-arrival mode replays per-device request
// gaps (used for the realistic 100-user load of Fig. 9/10).  A third
// schedule, rate doubling, drives the saturation study of Fig. 8.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/rng.h"
#include "workload/request.h"

namespace mca::workload {

/// Draws the next task for a request.
using task_source = std::function<tasks::task_request(util::rng&)>;

/// Random task, uniformly random size in its range (Fig. 4 methodology).
task_source random_pool_source(const tasks::task_pool& pool);
/// Random task at its maximum size — the heavy mix that saturates a
/// t2.large near the paper's 32 Hz knee (Fig. 8 methodology; the paper
/// does not state its mix, and bench/fig8_saturation checks the knee).
task_source heavy_pool_source(const tasks::task_pool& pool);
/// Always the same request (the static minimax benchmark of Fig. 5/9).
task_source static_source(tasks::task_request request);

/// Draws the next inter-arrival gap in ms.
using interarrival_fn = std::function<double(util::rng&)>;

/// Poisson arrivals at `rate_hz` per device.
interarrival_fn exponential_interarrival(double rate_hz);

/// Concurrent mode: every `gap` ms, all `users` (ids 0..users-1) fire one
/// request at once; `rounds` rounds in total.  The 1-minute default gap is
/// the paper's cool-down between bursts.
struct concurrent_config {
  std::size_t users = 1;
  std::size_t rounds = 1;
  util::time_ms gap = util::minutes(1);
};

class concurrent_generator {
 public:
  /// Schedules all rounds on `sim`.  Throws std::invalid_argument on zero
  /// users/rounds or a missing sink/source.
  concurrent_generator(sim::simulation& sim, task_source source,
                       request_sink sink, concurrent_config config,
                       util::rng rng);

 private:
  void emit_round();

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  concurrent_config config_;
  util::rng rng_;
  std::size_t rounds_done_ = 0;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<sim::periodic_process> process_;
};

/// Inter-arrival mode: `devices` independent devices (user ids
/// 0..devices-1), each issuing its next request one sampled gap after its
/// previous one, for `active_duration` of simulated time.  Each device keeps
/// one arrival pending in the simulation's arrival lane, so a simulation
/// runs one such generator, of <= 2^24 devices.
struct interarrival_config {
  std::size_t devices = 1;
  util::time_ms active_duration = util::hours(1);
};

class interarrival_generator {
 public:
  /// Throws std::invalid_argument on zero devices or empty callbacks (and
  /// from the event loop on a negative gap), std::length_error on more than
  /// 2^24 devices and std::logic_error if `sim` has an arrival handler.
  interarrival_generator(sim::simulation& sim, task_source source,
                         request_sink sink, interarrival_fn gaps,
                         interarrival_config config, util::rng rng);

 private:
  void on_arrival(std::uint32_t device);

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  interarrival_fn gaps_;
  interarrival_config config_;
  util::rng rng_;
  util::time_ms deadline_ = 0.0;
  std::uint64_t emitted_ = 0;
};

/// Trace replay: re-issues requests at exact recorded (timestamp, user)
/// pairs — e.g. a smartphone-study event list or an imported request log
/// (`trace::trace_io`).  Task payloads are drawn from the source, since
/// logs record timing, not code.
struct replay_event {
  util::time_ms at = 0.0;
  user_id user = 0;
};

class replay_generator {
 public:
  /// Schedules the trace (events need not be sorted).  Same-timestamp
  /// bursts share one simulator wake-up — a trace of n events at k
  /// distinct timestamps schedules k events, not n — while emission
  /// order (and hence rng draw order) matches per-event scheduling.
  /// Throws std::invalid_argument on empty callbacks.
  replay_generator(sim::simulation& sim, task_source source,
                   request_sink sink, std::vector<replay_event> events,
                   util::rng rng);
  std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  void emit_range(std::size_t first, std::size_t last);

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  util::rng rng_;
  std::vector<replay_event> events_;  ///< sorted by (at, original order)
  std::uint64_t emitted_ = 0;
};

/// Rate-doubling schedule (Fig. 8): Poisson arrivals at `initial_hz`,
/// doubling every `phase_length` until past `final_hz`, issued round-robin
/// by a population of 1000 users.
struct rate_doubling_config {
  double initial_hz = 1.0;
  double final_hz = 1024.0;
  util::time_ms phase_length = util::minutes(5);
};

class rate_doubling_generator {
 public:
  /// Throws std::invalid_argument on non-positive rates or phase length.
  rate_doubling_generator(sim::simulation& sim, task_source source,
                          request_sink sink, rate_doubling_config config,
                          util::rng rng);
  double current_rate_hz() const noexcept { return rate_hz_; }

 private:
  void schedule_arrival();

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  rate_doubling_config config_;
  util::rng rng_;
  double rate_hz_;
  util::time_ms phase_end_;
  std::uint64_t emitted_ = 0;
  user_id next_user_ = 0;
};

}  // namespace mca::workload
