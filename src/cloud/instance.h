// A simulated cloud server executing offloaded tasks.
//
// Service model: egalitarian processor sharing.  With `n` active requests
// on `c` cores each request progresses at
//
//     speed_factor * (1 - steal(n)) * min(1, c/n)   work units per ms,
//
// which yields exactly the behaviour the paper characterizes in §VI-A: flat
// response time until concurrency exceeds the core count, then linear
// degradation whose slope flattens as the type gets wider/faster (Fig. 4).
// Each request additionally pays the dalvikvm spawn overhead and a
// lognormal multi-tenancy jitter on its total work.  Admission is capped at
// `instance_type::max_concurrent()`; beyond it requests are dropped, which
// produces the success/fail split of Fig. 8c.
//
// Implementation: analytic virtual-time accounting, O(1) per event.  A
// single virtual-work clock V(t) accumulates the per-job progress rate —
// piecewise linear in wall time, with slope changes only at submissions,
// completions, and credit exhaustion (each of which is an event, so V
// advances by `elapsed * rate` per event and never needs sub-interval
// integration).  A job submitted when the clock reads V with `w` noisy work
// units finishes exactly when V reaches V + w; under egalitarian sharing
// every active job progresses at the same rate, so ordering jobs in a
// min-heap keyed by that finish-V *is* completion order.  advance() is a
// constant-time clock/credit/utilization update instead of an O(n) sweep
// decrementing per-job remaining work, the next completion is the heap top
// instead of an O(n) min scan, and all jobs whose finish-V falls within
// kWorkEpsilon of the clock drain in one event.  The one pending
// sim-event is kept at a time <= the true next completion (submissions
// slow the shared rate, pushing completions later, so the armed event may
// fire early, find nothing due, and re-arm exactly — which replaces the
// former cancel/re-insert pair per submission with at most one O(1)
// spurious wake per busy burst); it is moved earlier in place via
// sim::simulation::reschedule when a short job or a credit-exhaustion
// boundary needs a sooner wake.
//
// An optional t2 CPU-credit model (off by default, matching the paper's
// cool-down methodology) throttles the instance to its baseline share when
// the credit balance empties; the throttle changes only the V(t) slope (a
// piecewise segment starting at the exhaustion wake-up), so the heap order
// is unaffected.  `bench/ablation_credits` exercises it.
//
// Numerical note for re-goldening: the virtual-time formulation computes a
// job's remaining work as `finish_V - V` (one subtraction against a shared
// accumulator) where the legacy event-rescheduling implementation kept a
// per-job `remaining_wu` decremented every event.  The two accumulate
// floating-point rounding differently, so individual completion times can
// drift by O(1 ulp of V) — semantically identical service times, but not
// guaranteed bit-identical.  In practice every scenario-level golden
// (tests/test_golden_equivalence.cpp) and the 100k-user fleet fingerprint
// came out bit-identical; only the 500k-user fleet fingerprint moved (its
// deeper per-instance queues hit the rounding difference), and was
// re-recorded in the PR that introduced this file after
// tests/test_ps_differential.cpp bounded the drift against the legacy
// sweep kept in-test.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cloud/instance_type.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace mca::cloud {

/// One provisioned server inside the discrete-event simulation.
class instance {
 public:
  struct options {
    /// Enables the t2 CPU-credit throttling model.
    bool enable_cpu_credits = false;
    /// Initial credit balance in core-milliseconds (30 credit-minutes of a
    /// full core by default, roughly EC2's launch allotment).
    double initial_credits_core_ms = 30.0 * 60'000.0;
    /// Cold-start delay paid between launch and first-accept: lognormal
    /// with median `cold_start_mean_ms` and shape `cold_start_sigma`.
    /// 0 (the default) disables the warm-up and draws nothing from the
    /// instance's rng stream, so fault-free runs are bit-identical to
    /// builds that predate the knob.
    double cold_start_mean_ms = 0.0;
    double cold_start_sigma = 0.4;
  };

  /// Invoked when a request leaves the server: `ok` is true for a normal
  /// completion (`service_time` is the in-server time — spawn + compute
  /// under sharing, excluding network) and false when the job was killed
  /// in flight (preemption / forced drain; `service_time` is then the
  /// time the job had spent on the server).
  using completion_fn =
      std::function<void(util::time_ms service_time, bool ok)>;

  instance(sim::simulation& sim, instance_id id, const instance_type& type,
           util::rng rng, options opts);
  instance(sim::simulation& sim, instance_id id, const instance_type& type,
           util::rng rng)
      : instance{sim, id, type, rng, options{}} {}

  instance(const instance&) = delete;
  instance& operator=(const instance&) = delete;
  ~instance();

  /// Submits `work_units` of compute.  Returns false when the admission cap
  /// is hit or the instance is draining (the callback is then never run).
  bool submit(double work_units, completion_fn on_complete);

  /// Stops accepting new work; running requests finish normally.  Fires
  /// the drain observer on the first call, so an owning pool's sweep
  /// accounting stays exact even when drain() is invoked directly (e.g.
  /// through mutable_instances_in).
  void drain() noexcept {
    if (!draining_) {
      draining_ = true;
      if (drain_observer_ != nullptr) drain_observer_(drain_observer_ctx_);
    }
  }
  /// Observer invoked once, at the accepting->draining transition.
  using drain_observer_fn = void (*)(void*) noexcept;
  void set_drain_observer(drain_observer_fn fn, void* ctx) noexcept {
    drain_observer_ = fn;
    drain_observer_ctx_ = ctx;
  }
  bool draining() const noexcept { return draining_; }
  bool idle() const noexcept { return heap_.empty(); }

  /// True while the cold-start delay is still running: the instance is
  /// provisioned (and billed) but not yet accepting work.
  bool warming() const noexcept { return sim_.now() < ready_at_; }
  util::time_ms ready_at() const noexcept { return ready_at_; }

  /// Spot-style preemption: every in-flight job is killed *now* — each
  /// callback fires with ok=false so the client hears a failure notice
  /// instead of silence — and the instance drains (an owning pool's sweep
  /// reaps it immediately, since the heap is empty).  Returns the number
  /// of jobs killed.  Allocation-free: reuses the completion scratch.
  std::size_t preempt();

  /// Attaches the PS counters (submits/drops/completions, queue-depth and
  /// event-batch series, virtual-clock resets).  nullptr (the default)
  /// disables them; the pointer is fixed after setup, so the off path is
  /// one predictable branch per event.
  void set_observability(obs::registry* registry) noexcept {
    obs_ = registry;
  }

  instance_id id() const noexcept { return id_; }
  const instance_type& type() const noexcept { return type_; }
  std::size_t active_jobs() const noexcept { return heap_.size(); }

  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// In-server response-time statistics over all completed requests.
  const util::running_stats& service_stats() const noexcept { return stats_; }
  /// Mean number of busy cores since launch (time-averaged).
  double mean_utilization() const noexcept;
  /// Remaining CPU-credit balance in core-ms (meaningful when the credit
  /// model is enabled).
  double credit_balance() const noexcept { return credits_; }
  /// True while the credit model has the instance throttled to baseline.
  bool throttled() const noexcept;

 private:
  /// Slab entry for one in-flight (or free) job.  Free entries chain
  /// through `next_free`; steady-state submissions reuse storage instead
  /// of allocating.  Remaining work is not stored — it is implied by the
  /// job's finish-V heap entry relative to the clock.
  struct job {
    util::time_ms submitted_at = 0.0;
    completion_fn on_complete;
    std::uint32_t next_free = 0;
  };

  /// Finish-V min-heap entry: 16 bytes, primary key `finish_v`, FIFO
  /// tie-break and slab identity in the packed (sequence << 24 | slot)
  /// key, mirroring the event engine's layout — simultaneous finishers
  /// complete in submission order, exactly like the legacy sweep.
  struct finish_entry {
    double finish_v = 0.0;
    std::uint64_t key = 0;
  };
  static bool finishes_later(const finish_entry& a,
                             const finish_entry& b) noexcept {
    if (a.finish_v != b.finish_v) return a.finish_v > b.finish_v;
    return a.key > b.key;
  }

  /// Per-job progress rate (wu/ms) for `n` active jobs under current state.
  double rate_per_job(std::size_t n) const noexcept;
  /// Cores actually usable right now (credit throttling applied).
  double effective_cores() const noexcept;
  /// Steal fraction under `n`-way contention.
  double steal(std::size_t n) const noexcept;
  /// Advances the virtual-work clock and accrues credits/utilization from
  /// `last_update_` to now.  O(1): no per-job state is touched.
  void advance();
  /// Wall delay until the next state change (heap-top completion, or
  /// credit exhaustion if that comes first).  Requires a non-empty heap.
  double next_wake_delay() const noexcept;
  /// Ensures the single pending event fires no later than `delay` from
  /// now, moving it earlier in place when necessary (never later: a
  /// too-early event is harmless, it re-arms exactly).
  void arm_no_later_than(double delay);
  void on_completion_event();

  sim::simulation& sim_;
  instance_id id_;
  instance_type type_;
  util::rng rng_;
  options opts_;

  std::vector<job> jobs_;              ///< slab; entries recycled via free list
  std::vector<finish_entry> heap_;     ///< active jobs, keyed by finish-V
  std::vector<std::uint32_t> finished_scratch_;  ///< reused per completion
  std::uint32_t free_head_ = kNoFreeJob;
  static constexpr std::uint32_t kNoFreeJob = 0xffffffffu;
  std::uint64_t next_sequence_ = 1;
  /// Virtual work completed per active job this busy period (wu); resets
  /// to zero whenever the instance idles so precision never degrades over
  /// a long simulation.
  double vclock_ = 0.0;
  sim::event_handle pending_completion_{};
  util::time_ms armed_at_ = 0.0;  ///< wall time pending_completion_ fires
  drain_observer_fn drain_observer_ = nullptr;
  void* drain_observer_ctx_ = nullptr;
  obs::registry* obs_ = nullptr;
  util::time_ms last_update_ = 0.0;
  util::time_ms launched_at_ = 0.0;
  util::time_ms ready_at_ = 0.0;  ///< first-accept time (cold start)
  double busy_core_ms_ = 0.0;
  double credits_ = 0.0;
  bool draining_ = false;

  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  util::running_stats stats_;
};

}  // namespace mca::cloud
