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
// Implementation: analytic virtual-time accounting, O(1) per wake.  A
// single virtual-work clock V(t) accumulates the per-job progress rate —
// piecewise linear in wall time, with slope changes only at submissions,
// completions, and credit exhaustion (each of which is a submit or a wake,
// so V advances by `elapsed * rate` at each and never needs sub-interval
// integration).  A job submitted when the clock reads V with `w` noisy work
// units finishes exactly when V reaches V + w; under egalitarian sharing
// every active job progresses at the same rate, so ordering jobs in a
// min-heap keyed by that finish-V *is* completion order.  advance() is a
// constant-time clock/credit update instead of an O(n) sweep
// decrementing per-job remaining work, the next completion is the heap top
// instead of an O(n) min scan, and all jobs whose finish-V falls within
// kWorkEpsilon of the clock drain in one wake.
//
// The wake.  An instance has at most one pending wake, kept at a time <=
// the true next completion: submissions slow the shared rate, pushing
// completions later, so the wake may fire early, find nothing due, and
// re-arm exactly (at most one O(1) spurious wake per busy burst instead
// of a cancel/re-insert pair per submission); a short job or a
// credit-exhaustion boundary that needs a sooner wake moves it earlier in
// place, keeping its FIFO place.  Its FIFO place is a sequence number
// reserved from the engine's one counter when the wake is armed
// (sim::simulation::reserve_sequence), so it sorts against every other
// event exactly as a scheduled event would.
//
// Where the wake lives, by one rule: it is an engine event iff a tagged
// job (one a completion sink hears) is active.  While every active job is
// untagged (background load, reported to nobody) the wake is only state,
// its time and reserved sequence, and costs the engine nothing.
//
// The reader contract.  Every read of the instance (submit, active_jobs,
// idle, preempt, credit_balance, throttled, settle) first replays, in
// order, each deferred wake an engine run would already have fired: the
// same advance, batch drain, virtual-clock reset, spurious and
// credit-exhaustion wakes and registry counts, on the same doubles.  Code
// running as event (T, K) replays the wakes with (at, seq) < (T, K)
// (sim::simulation::running_sequence), so the FIFO tie rule holds; code
// outside any event replays every wake due at or before now.  The first
// tagged submit hands the pending wake to the engine under its reserved
// sequence.  Two consequences:
//   * the registry lags until someone reads: the owner settles every
//     instance (backend_pool::settle) at each slot boundary, before the
//     telemetry snapshot, and after each advance;
//   * the engine's run()/run_until() know nothing of a deferred wake: a
//     caller driving a bare instance reads it once the clock has passed.
// One order can differ from an engine run's: a wake re-armed during a
// replay reserves its sequence at the replay, not at the earlier instant
// an engine run would have scheduled it, so an event scheduled in
// between, by code that never read this instance, at exactly that wake's
// time, sorts before it instead of after.  That takes two computed
// doubles to coincide; the library's workloads schedule no such event.
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
#include <limits>
#include <vector>

#include "cloud/instance_type.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace mca::cloud {

/// Hears every tagged job as it leaves a server.  Implemented once by the
/// owner (the SDN front-end, a characterization run), so a job carries
/// two integers instead of per-request callback state.
class completion_sink {
 public:
  virtual ~completion_sink() = default;
  /// `tag` and `epoch` are the values the job was submitted with.  `ok`
  /// is true for a normal completion (`service_time` is the in-server
  /// time: spawn + compute under sharing, excluding network) and false
  /// when the job was killed in flight (preemption; `service_time` is
  /// then the time the job had spent on the server).
  virtual void on_completion(std::uint32_t tag, std::uint32_t epoch,
                             util::time_ms service_time, bool ok) = 0;
};

/// A completion_sink that keeps every service time it hears, in
/// completion order: the single-server load sweeps (core::classifier,
/// exp::curves) read their response samples from it.
class service_time_recorder final : public completion_sink {
 public:
  void on_completion(std::uint32_t /*tag*/, std::uint32_t /*epoch*/,
                     util::time_ms service_time, bool /*ok*/) override {
    times.push_back(service_time);
  }

  std::vector<util::time_ms> times;
};

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
    /// with median `cold_start_mean_ms` and shape 0.4.  0 (the default)
    /// disables the warm-up and draws nothing from the instance's rng
    /// stream.
    double cold_start_mean_ms = 0.0;
  };

  /// The tag of a job whose completion nobody hears (background load).
  static constexpr std::uint32_t kUntagged = 0xffffffffu;

  instance(sim::simulation& sim, instance_id id, const instance_type& type,
           util::rng rng, options opts);
  instance(sim::simulation& sim, instance_id id, const instance_type& type,
           util::rng rng)
      : instance{sim, id, type, rng, options{}} {}

  instance(const instance&) = delete;
  instance& operator=(const instance&) = delete;
  ~instance();

  /// Submits `work_units` of compute.  When the job leaves the server,
  /// the completion sink hears `tag` and `epoch`, unless the tag is
  /// kUntagged.  Returns false when the admission cap is hit or the
  /// instance is draining or warming (the sink then never hears the job).
  bool submit(double work_units, std::uint32_t tag = kUntagged,
              std::uint32_t epoch = 0);

  /// Installs the sink that hears tagged completions (nullptr = none).
  /// Setup-time: backend_pool hands its sink to every instance it
  /// launches.
  void set_completion_sink(completion_sink* sink) noexcept { sink_ = sink; }

  /// Stops accepting new work; running requests finish normally.  Fires
  /// the drain observer on the first call, so an owning pool's sweep
  /// accounting stays exact even when drain() is invoked directly (e.g.
  /// on an instance visited through for_each_accepting).
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
  bool idle() {
    settle();
    return heap_.empty();
  }

  /// Replays every deferred wake due before the running code (see the
  /// header comment); one comparison when none is.  Every read calls it.
  void settle() {
    if (deferred_at_ <= sim_.now()) replay_deferred();
  }

  /// True while the cold-start delay is still running: the instance is
  /// provisioned (and billed) but not yet accepting work.
  bool warming() const noexcept { return sim_.now() < ready_at_; }

  /// Spot-style preemption: every in-flight job is killed *now* — the
  /// sink hears each tagged one with ok=false, so the client gets a
  /// failure notice instead of silence — and the instance drains (an
  /// owning pool's sweep reaps it immediately, since the heap is empty).
  /// Returns the number of jobs killed.  Allocation-free: the kill walks
  /// the heap storage in place.
  std::size_t preempt();

  /// Attaches the PS counters (submits/drops/completions, queue-depth and
  /// event-batch series, virtual-clock resets).  nullptr (the default)
  /// disables them; the pointer is fixed after setup, so the off path is
  /// one predictable branch per event.  The instance keeps no tallies of
  /// its own: completions and drops are counted only here, and each
  /// tagged job's service time reaches the completion sink.
  void set_observability(obs::registry* registry) noexcept {
    obs_ = registry;
  }

  instance_id id() const noexcept { return id_; }
  const instance_type& type() const noexcept { return type_; }
  std::size_t active_jobs() {
    settle();
    return heap_.size();
  }

  /// Remaining CPU-credit balance in core-ms (meaningful when the credit
  /// model is enabled).
  double credit_balance() {
    settle();
    return credits_;
  }
  /// True while the credit model has the instance throttled to baseline.
  bool throttled() {
    settle();
    return opts_.enable_cpu_credits && credits_ <= 0.0;
  }

 private:
  /// Slab entry for one in-flight (or free) job.  Free entries chain
  /// through `tag`; steady-state submissions reuse storage instead of
  /// allocating.  Remaining work is not stored — it is implied by the
  /// job's finish-V heap entry relative to the clock.
  struct job {
    util::time_ms submitted_at = 0.0;
    /// In flight: the completion tag.  Free: the next free slot.
    std::uint32_t tag = 0;
    std::uint32_t epoch = 0;
  };
  static_assert(sizeof(job) == 16, "a job slot is 16 bytes");

  /// Finish-V min-heap entry: 16 bytes, primary key `finish_v`, FIFO
  /// tie-break and slab identity in the packed (sequence << 24 | slot)
  /// key, mirroring the event engine's layout — simultaneous finishers
  /// complete in submission order, exactly like the legacy sweep.
  struct finish_entry {
    double finish_v = 0.0;
    std::uint64_t key = 0;
  };
  /// The heap order, as a function object so std::push_heap/pop_heap
  /// inline it (a function pointer stays an indirect call).
  struct finishes_later {
    bool operator()(const finish_entry& a,
                    const finish_entry& b) const noexcept {
      if (a.finish_v != b.finish_v) return a.finish_v > b.finish_v;
      return a.key > b.key;
    }
  };

  /// Per-job progress rate (wu/ms) for `n` active jobs under current state.
  double rate_per_job(std::size_t n) const noexcept;
  /// Cores actually usable right now (credit throttling applied).
  double effective_cores() const noexcept;
  /// Steal fraction under `n`-way contention.
  double steal(std::size_t n) const noexcept;
  /// Advances the virtual-work clock and accrues credits from
  /// `last_update_` to `now`.  O(1): no per-job state is touched.
  void advance(util::time_ms now);
  /// Wall delay until the next state change (heap-top completion, or
  /// credit exhaustion if that comes first).  Requires a non-empty heap.
  double next_wake_delay() const noexcept;
  /// Ensures the pending wake fires no later than `now + delay`, moving it
  /// earlier in place when necessary (never later: a too-early wake is
  /// harmless, it re-arms exactly).  A new wake is an engine event iff a
  /// tagged job is active, else deferred under a reserved sequence.
  void arm_no_later_than(util::time_ms now, double delay);
  /// The engine event's handler: the wake at the engine's clock.
  void on_wake_event();
  /// One wake at `now`: advance, drain every job due, count, re-arm.
  void wake(util::time_ms now);
  /// Fires, in order, every deferred wake before the running code.
  void replay_deferred();
  /// Returns job `idx` to the free list, then reports it to the sink
  /// (unless untagged) with its time on the server up to `now`.
  void release_job(std::uint32_t idx, bool ok, util::time_ms now);

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
  /// Active jobs a sink hears, counted down as each is released (so, in
  /// the middle of a batch, never below the heap's true count).
  std::uint32_t tagged_jobs_ = 0;
  static constexpr util::time_ms kNoWake =
      std::numeric_limits<util::time_ms>::infinity();
  sim::event_handle wake_event_{};  ///< the pending wake, while an event
  util::time_ms armed_at_ = 0.0;    ///< when the pending wake fires
  std::uint64_t wake_sequence_ = 0;  ///< a deferred wake's FIFO place
  /// armed_at_ while the pending wake is deferred, kNoWake otherwise:
  /// the one comparison a read makes.
  util::time_ms deferred_at_ = kNoWake;
  drain_observer_fn drain_observer_ = nullptr;
  void* drain_observer_ctx_ = nullptr;
  completion_sink* sink_ = nullptr;
  obs::registry* obs_ = nullptr;
  util::time_ms last_update_ = 0.0;
  util::time_ms ready_at_ = 0.0;  ///< first-accept time (cold start)
  double credits_ = 0.0;
  bool draining_ = false;
};

}  // namespace mca::cloud
