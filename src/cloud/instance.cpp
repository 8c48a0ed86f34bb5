#include "cloud/instance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mca::cloud {

namespace {
/// Work below this is considered finished (guards float drift).  A job
/// whose finish-V is within this of the clock completes now.
constexpr double kWorkEpsilon = 1e-6;
/// Cap on banked credits: 24 hours of baseline accrual.
constexpr double kCreditCapHours = 24.0;
/// Finish-heap key packing, mirroring sim::simulation: low 24 bits are the
/// job-slab slot, high 40 bits the per-instance submission sequence.  2^40
/// submissions per instance is unreachable in any experiment (a fleet run
/// totals ~10^6 requests across hundreds of instances).
constexpr std::uint32_t kJobSlotBits = 24;
constexpr std::uint64_t kJobSlotMask = (1u << kJobSlotBits) - 1;
}  // namespace

instance::instance(sim::simulation& sim, instance_id id,
                   const instance_type& type, util::rng rng, options opts)
    : sim_{sim},
      id_{id},
      type_{type},
      rng_{rng},
      opts_{opts},
      last_update_{sim.now()},
      launched_at_{sim.now()},
      credits_{opts.initial_credits_core_ms} {
  if (opts_.cold_start_mean_ms > 0.0) {
    ready_at_ = sim.now() + opts_.cold_start_mean_ms *
                                rng_.lognormal(0.0, opts_.cold_start_sigma);
  }
}

instance::~instance() {
  if (pending_completion_.valid()) sim_.cancel(pending_completion_);
}

// The PS event math: advance / wake planning / batched completion drain /
// submit all run per request (or per completion event), so they form one
// lint-enforced hot-path region.  The job slab and finish-V heap are
// member vectors whose growth amortizes to zero in steady state — the
// counting-allocator test holds them to that at runtime, the region
// rules hold the code to it statically.
// mca:hot-path-begin(ps-event-math)
double instance::steal(std::size_t n) const noexcept {
  if (type_.steal_max <= 0.0 || n == 0) return 0.0;
  // Contention-dependent steal: negligible solo, approaching steal_max as
  // neighbours pile on (the t2.micro oversubscription anomaly of Fig. 6).
  const double x = static_cast<double>(n);
  return type_.steal_max * x / (x + 8.0);
}

double instance::effective_cores() const noexcept {
  if (opts_.enable_cpu_credits && credits_ <= 0.0) {
    return std::max(type_.baseline_fraction * type_.vcpus, 0.05);
  }
  return type_.vcpus;
}

double instance::rate_per_job(std::size_t n) const noexcept {
  if (n == 0) return 0.0;
  const double cores = effective_cores();
  const double share = std::min(1.0, cores / static_cast<double>(n));
  return type_.speed_factor * (1.0 - steal(n)) * share;
}

void instance::advance() {
  const util::time_ms now = sim_.now();
  const double elapsed = now - last_update_;
  if (elapsed <= 0.0) {
    last_update_ = now;
    return;
  }
  // The per-job rate is piecewise-constant between events (submissions,
  // completions, and the credit-exhaustion wake are all events), so the
  // whole interval integrates to one multiply — no per-job state to touch.
  const std::size_t n = heap_.size();
  if (n > 0) {
    vclock_ += elapsed * rate_per_job(n);
    const double busy_cores =
        std::min(static_cast<double>(n), effective_cores());
    busy_core_ms_ += elapsed * busy_cores;
    if (opts_.enable_cpu_credits) {
      const double accrual = type_.baseline_fraction * type_.vcpus;
      credits_ += elapsed * (accrual - busy_cores);
      credits_ = std::clamp(
          credits_, 0.0,
          kCreditCapHours * 3'600'000.0 * type_.baseline_fraction * type_.vcpus);
    }
  } else if (opts_.enable_cpu_credits) {
    credits_ += elapsed * type_.baseline_fraction * type_.vcpus;
    credits_ = std::min(credits_, kCreditCapHours * 3'600'000.0 *
                                      type_.baseline_fraction * type_.vcpus);
  }
  last_update_ = now;
}

double instance::next_wake_delay() const noexcept {
  const double remaining = heap_.front().finish_v - vclock_;
  const double rate = rate_per_job(heap_.size());
  double eta = std::max(remaining, 0.0) / rate;
  if (opts_.enable_cpu_credits && credits_ > 0.0) {
    // If the balance empties before the next completion, wake up at the
    // exhaustion moment so the throttled rate takes effect from there on
    // (on_completion_event tolerates firing with nothing finished).
    const double busy_cores =
        std::min(static_cast<double>(heap_.size()), type_.vcpus);
    const double accrual = type_.baseline_fraction * type_.vcpus;
    if (busy_cores > accrual) {
      const double exhaustion = credits_ / (busy_cores - accrual);
      if (exhaustion + 1e-9 < eta) eta = std::max(exhaustion, 1e-6);
    }
  }
  return eta;
}

void instance::arm_no_later_than(double delay) {
  const util::time_ms target = sim_.now() + delay;
  if (pending_completion_.valid()) {
    // Never push the armed event later: an early fire merely advances the
    // clock and re-arms, but a late one would delay a real completion.
    if (target < armed_at_) {
      sim_.reschedule(pending_completion_, target);
      armed_at_ = target;
    }
    return;
  }
  pending_completion_ =
      sim_.schedule_at(target, [this] { on_completion_event(); });
  armed_at_ = target;
}

void instance::on_completion_event() {
  pending_completion_ = {};
  advance();
  // Pop every job whose finish-V the clock has (numerically) reached — a
  // whole batch of simultaneous finishers drains in this one event.
  // Callbacks run after internal state is consistent so they may submit
  // again immediately.  The scratch list keeps its capacity across events
  // and the completed slab entries return to the free list — no
  // steady-state allocation.
  finished_scratch_.clear();
  const double due = vclock_ + kWorkEpsilon;
  while (!heap_.empty() && heap_.front().finish_v <= due) {
    finished_scratch_.push_back(
        static_cast<std::uint32_t>(heap_.front().key & kJobSlotMask));
    std::pop_heap(heap_.begin(), heap_.end(), finishes_later);
    heap_.pop_back();
  }
  if (obs_ != nullptr) {
    obs_->add(obs::counter::ps_completion_events);
    obs_->add(obs::counter::ps_completions, finished_scratch_.size());
    obs_->observe(obs::series::ps_event_batch,
                  static_cast<double>(finished_scratch_.size()));
    if (finished_scratch_.empty()) {
      obs_->add(obs::counter::ps_spurious_wakes);
    }
    if (heap_.empty()) obs_->add(obs::counter::ps_vclock_resets);
  }
  if (heap_.empty()) {
    // Fresh busy period, fresh origin: V never accumulates across idle
    // gaps, so its magnitude (and hence the absolute rounding error of
    // `finish_v - vclock_`) stays bounded by one busy period's work.
    vclock_ = 0.0;
  }
  for (const std::uint32_t idx : finished_scratch_) {
    job& j = jobs_[idx];
    const util::time_ms service_time = sim_.now() - j.submitted_at;
    completion_fn fn = std::move(j.on_complete);
    j.on_complete = nullptr;
    j.next_free = free_head_;
    free_head_ = idx;
    ++completed_;
    stats_.add(service_time);
    if (fn) fn(service_time, true);
  }
  // A stale-early fire (submissions slowed the shared rate after arming)
  // lands here with nothing due; either way, re-arm exactly for the new
  // heap top.  Resubmitting callbacks have already armed via submit().
  if (!heap_.empty()) arm_no_later_than(next_wake_delay());
}

bool instance::submit(double work_units, completion_fn on_complete) {
  // mca-lint: allow(hot-throw) cold caller-bug validation: fires once per
  // programming error, never on the steady-state request path.
  if (work_units < 0.0) throw std::invalid_argument{"submit: negative work"};
  if (draining_ || warming() || heap_.size() >= type_.max_concurrent()) {
    ++dropped_;
    if (obs_ != nullptr) obs_->add(obs::counter::ps_drops);
    return false;
  }
  if (obs_ != nullptr) {
    obs_->add(obs::counter::ps_submits);
    obs_->observe(obs::series::ps_queue_depth,
                  static_cast<double>(heap_.size()));
  }
  advance();
  // Multi-tenancy jitter multiplies the compute portion; the dalvikvm spawn
  // cost is paid per request on top.
  const double noisy =
      work_units * rng_.lognormal(0.0, type_.jitter_sigma) +
      k_spawn_overhead_wu;
  std::uint32_t idx;
  if (free_head_ != kNoFreeJob) {
    idx = free_head_;
    free_head_ = jobs_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  job& j = jobs_[idx];
  j.submitted_at = sim_.now();
  j.on_complete = std::move(on_complete);
  const double new_finish = vclock_ + noisy;
  // The pending event (if any) was armed for a faster rate and therefore
  // fires no later than the true next completion — leave it alone unless
  // this job (or the now-nearer credit exhaustion) needs an earlier wake:
  //  * the new job undercuts the heap front (it is the next completion), or
  //  * the heap was empty (nothing armed at all), or
  //  * credits are burning faster than they accrue, so this extra job pulls
  //    the exhaustion slope-change closer.
  // Otherwise the armed event already fires early-or-exact, and a spurious
  // early fire just advances the clock and re-arms — skipping the wake math
  // here is what keeps bursty submits O(log n) with no event churn.
  bool need_arm = heap_.empty() || new_finish < heap_.front().finish_v;
  heap_.push_back({new_finish, (next_sequence_++ << kJobSlotBits) | idx});
  std::push_heap(heap_.begin(), heap_.end(), finishes_later);
  if (!need_arm && opts_.enable_cpu_credits && credits_ > 0.0) {
    const double busy_cores =
        std::min(static_cast<double>(heap_.size()), type_.vcpus);
    need_arm = busy_cores > type_.baseline_fraction * type_.vcpus;
  }
  if (need_arm) arm_no_later_than(next_wake_delay());
  return true;
}

std::size_t instance::preempt() {
  advance();
  vclock_ = 0.0;
  if (pending_completion_.valid()) {
    sim_.cancel(pending_completion_);
    pending_completion_ = {};
  }
  // Drain before the failure callbacks run: a callback that immediately
  // re-routes must not land back on this instance — which also freezes
  // heap_ (submit() bails on draining_ before touching it), so the
  // callbacks fire straight off the heap storage in layout order.  Kill
  // order is deterministic given the deterministic submission history,
  // and skipping the scratch copy keeps a strike on a freshly relaunched
  // instance (whose scratch buffer would still be cold) allocation-free.
  drain();
  const std::size_t killed = heap_.size();
  for (const finish_entry& e : heap_) {
    const std::uint32_t idx = static_cast<std::uint32_t>(e.key & kJobSlotMask);
    job& j = jobs_[idx];
    const util::time_ms elapsed = sim_.now() - j.submitted_at;
    completion_fn fn = std::move(j.on_complete);
    j.on_complete = nullptr;
    j.next_free = free_head_;
    free_head_ = idx;
    if (fn) fn(elapsed, false);
  }
  heap_.clear();
  return killed;
}
// mca:hot-path-end

double instance::mean_utilization() const noexcept {
  // Include the interval since the last event so callers can sample at any
  // simulated moment without forcing an advance().  The tail uses the same
  // busy-core formula as advance() — in particular effective_cores(), not
  // raw vcpus, so a credit-throttled instance is not overstated.
  double busy = busy_core_ms_;
  const double tail = sim_.now() - last_update_;
  if (tail > 0.0 && !heap_.empty()) {
    busy += tail * std::min(static_cast<double>(heap_.size()),
                            effective_cores());
  }
  const double lifetime = sim_.now() - launched_at_;
  if (lifetime <= 0.0) return 0.0;
  return busy / (lifetime * type_.vcpus);
}

bool instance::throttled() const noexcept {
  return opts_.enable_cpu_credits && credits_ <= 0.0;
}

}  // namespace mca::cloud
