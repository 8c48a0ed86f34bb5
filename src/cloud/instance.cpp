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
/// Shape of the lognormal cold-start delay (its median is the option).
constexpr double kColdStartSigma = 0.4;
}  // namespace

instance::instance(sim::simulation& sim, instance_id id,
                   const instance_type& type, util::rng rng, options opts)
    : sim_{sim},
      id_{id},
      type_{type},
      rng_{rng},
      opts_{opts},
      last_update_{sim.now()},
      credits_{opts.initial_credits_core_ms} {
  if (opts_.cold_start_mean_ms > 0.0) {
    ready_at_ = sim.now() + opts_.cold_start_mean_ms *
                                rng_.lognormal(0.0, kColdStartSigma);
  }
}

instance::~instance() {
  if (wake_event_.valid()) sim_.cancel(wake_event_);
}

// The PS event math: advance / wake planning / batched completion drain /
// deferred-wake replay / submit all run per request (or per wake), so
// they form one lint-enforced hot-path region.  The job slab and finish-V heap are
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

void instance::advance(util::time_ms now) {
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
    if (opts_.enable_cpu_credits) {
      const double busy_cores =
          std::min(static_cast<double>(n), effective_cores());
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

void instance::arm_no_later_than(util::time_ms now, double delay) {
  const util::time_ms target = now + delay;
  if (wake_event_.valid() || deferred_at_ != kNoWake) {
    // Never push the pending wake later: an early fire merely advances the
    // clock and re-arms, but a late one would delay a real completion.
    if (target < armed_at_) {
      armed_at_ = target;
      if (wake_event_.valid()) {
        sim_.reschedule(wake_event_, target);
      } else {
        deferred_at_ = target;
      }
    }
    return;
  }
  armed_at_ = target;
  if (tagged_jobs_ > 0) {
    wake_event_ = sim_.schedule_at(target, [this] { on_wake_event(); });
  } else {
    wake_sequence_ = sim_.reserve_sequence();
    deferred_at_ = target;
  }
}

void instance::on_wake_event() {
  wake_event_ = {};
  wake(sim_.now());
}

void instance::replay_deferred() {
  const util::time_ms now = sim_.now();
  const std::uint64_t running = sim_.running_sequence();
  // Strictly before (now, running): a wake tied with the running code on
  // time fires first only if it holds the earlier sequence.  Each wake
  // re-arms under a sequence reserved now, so a wake it arms at `now`
  // sorts after the running code, as one armed by an engine event would.
  while (deferred_at_ < now ||
         (deferred_at_ == now && wake_sequence_ < running)) {
    const util::time_ms at = deferred_at_;
    deferred_at_ = kNoWake;
    wake(at);
  }
}

void instance::wake(util::time_ms now) {
  advance(now);
  // Pop every job whose finish-V the clock has (numerically) reached — a
  // whole batch of simultaneous finishers drains in this one wake.  The
  // sink hears them after internal state is consistent, so it may submit
  // again immediately.  The scratch list keeps its capacity across wakes
  // and the completed slab entries return to the free list — no
  // steady-state allocation.
  finished_scratch_.clear();
  const double due = vclock_ + kWorkEpsilon;
  while (!heap_.empty() && heap_.front().finish_v <= due) {
    finished_scratch_.push_back(
        static_cast<std::uint32_t>(heap_.front().key & kJobSlotMask));
    std::pop_heap(heap_.begin(), heap_.end(), finishes_later{});
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
    release_job(idx, true, now);
  }
  // A stale-early fire (submissions slowed the shared rate after arming)
  // lands here with nothing due; either way, re-arm exactly for the new
  // heap top.  A sink that resubmitted has already armed via submit().
  if (!heap_.empty()) arm_no_later_than(now, next_wake_delay());
}

void instance::release_job(std::uint32_t idx, bool ok, util::time_ms now) {
  job& j = jobs_[idx];
  const std::uint32_t tag = j.tag;
  j.tag = free_head_;
  free_head_ = idx;
  if (tag == kUntagged) return;
  --tagged_jobs_;
  if (sink_ != nullptr) {
    sink_->on_completion(tag, j.epoch, now - j.submitted_at, ok);
  }
}

bool instance::submit(double work_units, std::uint32_t tag,
                      std::uint32_t epoch) {
  // mca-lint: allow(hot-throw) cold caller-bug validation: fires once per
  // programming error, never on the steady-state request path.
  if (work_units < 0.0) throw std::invalid_argument{"submit: negative work"};
  settle();
  if (draining_ || warming() || heap_.size() >= type_.max_concurrent()) {
    if (obs_ != nullptr) obs_->add(obs::counter::ps_drops);
    return false;
  }
  if (obs_ != nullptr) {
    obs_->add(obs::counter::ps_submits);
    obs_->observe(obs::series::ps_queue_depth,
                  static_cast<double>(heap_.size()));
  }
  const util::time_ms now = sim_.now();
  advance(now);
  // Multi-tenancy jitter multiplies the compute portion; the dalvikvm spawn
  // cost is paid per request on top.
  const double noisy =
      work_units * rng_.lognormal(0.0, type_.jitter_sigma) +
      k_spawn_overhead_wu;
  std::uint32_t idx;
  if (free_head_ != kNoFreeJob) {
    idx = free_head_;
    free_head_ = jobs_[idx].tag;
  } else {
    idx = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  job& j = jobs_[idx];
  j.submitted_at = now;
  j.tag = tag;
  j.epoch = epoch;
  const double new_finish = vclock_ + noisy;
  // The pending wake (if any) was armed for a faster rate and therefore
  // fires no later than the true next completion — leave it alone unless
  // this job (or the now-nearer credit exhaustion) needs an earlier wake:
  //  * the new job undercuts the heap front (it is the next completion), or
  //  * the heap was empty (nothing armed at all), or
  //  * credits are burning faster than they accrue, so this extra job pulls
  //    the exhaustion slope-change closer.
  // Otherwise the armed wake already fires early-or-exact, and a spurious
  // early fire just advances the clock and re-arms — skipping the wake math
  // here is what keeps bursty submits O(log n) with no event churn.
  bool need_arm = heap_.empty() || new_finish < heap_.front().finish_v;
  heap_.push_back({new_finish, (next_sequence_++ << kJobSlotBits) | idx});
  std::push_heap(heap_.begin(), heap_.end(), finishes_later{});
  if (!need_arm && opts_.enable_cpu_credits && credits_ > 0.0) {
    const double busy_cores =
        std::min(static_cast<double>(heap_.size()), type_.vcpus);
    need_arm = busy_cores > type_.baseline_fraction * type_.vcpus;
  }
  if (tag != kUntagged) ++tagged_jobs_;
  if (need_arm) arm_no_later_than(now, next_wake_delay());
  if (tag != kUntagged && deferred_at_ != kNoWake) {
    // A sink now waits on this instance: the engine runs the wake, in the
    // FIFO place it reserved.
    wake_event_ = sim_.schedule_reserved(armed_at_, wake_sequence_,
                                         [this] { on_wake_event(); });
    deferred_at_ = kNoWake;
  }
  return true;
}

std::size_t instance::preempt() {
  settle();
  const util::time_ms now = sim_.now();
  advance(now);
  vclock_ = 0.0;
  if (wake_event_.valid()) {
    sim_.cancel(wake_event_);
    wake_event_ = {};
  }
  deferred_at_ = kNoWake;
  // Drain before the sink hears the kills: a sink that immediately
  // re-routes must not land back on this instance — which also freezes
  // heap_ (submit() bails on draining_ before touching it), so the kills
  // are reported straight off the heap storage in layout order.  Kill
  // order is deterministic given the deterministic submission history,
  // and skipping the scratch copy keeps a strike on a freshly relaunched
  // instance (whose scratch buffer would still be cold) allocation-free.
  drain();
  const std::size_t killed = heap_.size();
  for (const finish_entry& e : heap_) {
    release_job(static_cast<std::uint32_t>(e.key & kJobSlotMask), false, now);
  }
  heap_.clear();
  return killed;
}
// mca:hot-path-end

}  // namespace mca::cloud
