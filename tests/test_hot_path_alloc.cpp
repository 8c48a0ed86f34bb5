// Zero-allocation gate for the steady-state request path (PR-5).
//
// Global operator new/delete are replaced with counting wrappers; a
// closed-loop system in fleet configuration (streaming digests only, no
// raw series, no retained trace records) is warmed through two
// provisioning slots, then advanced across a mid-slot window.  The window
// processes hundreds of requests end to end — generator draw, moderator
// decision, SDN chain, backend processor sharing, digest update — and
// must allocate NOTHING: all per-request state lives in pooled slabs and
// fixed-size accumulators after warm-up.
//
// The scenario is built to make the steady state exact, not merely
// likely: fixed inter-arrival gaps and a never-promote policy give every
// user at most one in-flight request and identical load in every slot, so
// warm-up provably reaches every high-water mark the window will see.
// Background bursts (fixed-period, fixed-size, untagged PS jobs: the path
// that carries nearly all of a closed-loop run's PS jobs) repeat the same
// load every period, so they reach their high-water marks in warm-up too.
// Nobody is promoted, so group 2 serves background bursts alone: its
// instance never holds a tagged job, keeps its completion wake out of the
// engine, and replays it whenever it is read (a burst, a sweep, a
// strike).  Each leg pins the window's engine events exactly, so the
// replay — not an engine event per wake — is what the window measures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/system.h"
#include "tasks/task.h"
#include "workload/generator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size ? size : alignment) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mca {
namespace {

/// Untagged PS jobs each back-end server takes per background burst
/// (every 2 s by default).
constexpr std::size_t kBackgroundPerBurst = 4;

/// Engine events and PS wake counts inside one measured window.
struct window_work {
  std::size_t events = 0;
  std::uint64_t wakes = 0;  ///< ps_completion_events, replayed or not
};

window_work work_of(core::offloading_system& system) {
  return {system.simulation().executed_events(),
          system.observability().get(obs::counter::ps_completion_events)};
}

window_work since(const window_work& start, const window_work& end) {
  return {end.events - start.events, end.wakes - start.wakes};
}

/// Responses the SDN has delivered so far, success or failure.
std::uint64_t delivered(const core::offloading_system& system) {
  const obs::registry& counts = system.observability();
  return counts.get(obs::counter::sdn_successes) +
         counts.get(obs::counter::sdn_failures);
}

TEST(HotPathAllocation, SteadyStateRequestPathAllocatesNothing) {
  tasks::task_pool pool;

  core::system_config config;
  config.groups = {
      {1, "t2.large", 2, 200.0},
      {2, "m4.4xlarge", 1, 600.0},
  };
  config.user_count = 400;
  config.tasks = workload::static_source(pool.static_minimax_request());
  config.gaps = [](util::rng&) { return util::seconds(40.0); };
  config.slot_length = util::minutes(10.0);
  config.background_requests_per_burst = kBackgroundPerBurst;
  // Deterministic steady state: nobody changes group, so per-slot load —
  // and with it the provisioning plan — is constant after the first slot.
  config.promotion_probability = 0.0;
  // Fleet configuration: streaming digests only.
  config.record_request_series = false;
  config.seed = 99;

  core::offloading_system system{std::move(config), pool};
  system.begin(util::hours(1.0));

  // Warm-up: two full slots establish every pool's high-water mark (the
  // event arena, the SDN in-flight slab, instance job slabs, the slot
  // accumulator, moderator state).
  system.advance_to(util::minutes(21.0));

  const window_work start = work_of(system);
  const std::uint64_t before = allocation_count();
  system.advance_to(util::minutes(29.0));
  const std::uint64_t during_window = allocation_count() - before;
  const window_work window = since(start, work_of(system));

  // ~400 users * 24 requests each flow through the window; the registry
  // keeps counting.
  EXPECT_GT(delivered(system), 10'000u);
  EXPECT_EQ(during_window, 0u)
      << "steady-state request path performed " << during_window
      << " heap allocations";
  // 9,393 wakes ran in the window; 2,289 of them were replays that no
  // engine event carried (24,032 events if every wake were one).
  EXPECT_EQ(window.wakes, 9'393u);
  EXPECT_EQ(window.events, 21'743u);
  EXPECT_GT(system.metrics().background_submitted, 0u);

  system.finish();
  EXPECT_EQ(system.observability().get(obs::counter::sdn_failures), 0u);
}

TEST(HotPathAllocation, FaultSteadyStateRequestPathAllocatesNothing) {
  // The same gate with the fault program live: timeout timers armed on
  // every dispatch, spot strikes landing inside the measured window (their
  // kills reach the SDN's completion sink with ok = false, or die
  // untagged), and the retry/backoff/fallback machinery absorbing
  // everything after them.
  //
  // Adaptation is off and three hand-placed strikes progressively empty
  // group 1 (nothing relaunches), so the run walks through every fault
  // regime before the window opens: full capacity, then one overloaded
  // survivor (warm-up saturates its job slab at max_concurrent and pushes
  // the in-flight pool and timeout machinery to their high-water marks),
  // then — after the in-window strike at minute 23 — a drained group
  // where every request runs route-refusal → backoff retries → local
  // fallback.  A fourth strike, at minute 24 just after a background
  // burst, kills group 2's only instance: nobody is ever promoted, so its
  // jobs are background bursts alone and every kill is untagged.  The
  // window must absorb the strikes themselves (billing close, heap-order
  // kills) and the regime change without a single allocation.
  tasks::task_pool pool;

  core::system_config config;
  config.groups = {
      {1, "t2.large", 3, 200.0},
      {2, "m4.4xlarge", 1, 600.0},
  };
  config.user_count = 400;
  config.tasks = workload::static_source(pool.static_minimax_request());
  config.gaps = [](util::rng&) { return util::seconds(40.0); };
  config.slot_length = util::minutes(10.0);
  config.background_requests_per_burst = kBackgroundPerBurst;
  config.promotion_probability = 0.0;
  config.enable_adaptation = false;
  config.record_request_series = false;
  config.seed = 99;

  config.faults.enabled = true;
  config.faults.preempt_hazard_per_hour = {0.0, 0.0, 0.0};
  config.faults.cold_start_mean_ms = 500.0;
  config.faults.max_retries = 2;
  config.faults.request_timeout_ms = 60'000.0;
  config.faults.local_fallback = true;
  // A fast local device keeps the post-drain fallback cheap (the paper's
  // 0.005 wu/ms would hold ~56 s of pending local events per request).
  config.faults.local_exec_wu_per_ms = 1.0;
  // Bursts fire every 2 s and group 2 serves one in a few tens of ms, so
  // a strike 5 ms after the minute-24 burst finds its jobs in flight.
  const util::time_ms kUntaggedStrike = util::minutes(24.0) + 5.0;
  const util::time_ms strike_at[4] = {util::minutes(5.0), util::minutes(13.0),
                                      util::minutes(23.0), kUntaggedStrike};
  const group_id strike_group[4] = {1, 1, 1, 2};
  for (std::uint64_t i = 0; i < 4; ++i) {
    fault::preemption_event ev;
    ev.at = strike_at[i];
    ev.group = strike_group[i];
    ev.ordinal = i;
    ev.seq = i;
    config.preemption_schedule.push_back(ev);
  }

  core::offloading_system system{std::move(config), pool};
  system.begin(util::hours(1.0));

  system.advance_to(util::minutes(21.0));

  const obs::registry& r = system.observability();
  const window_work start = work_of(system);
  const std::uint64_t before = allocation_count();
  system.advance_to(kUntaggedStrike - 1.0);
  const std::uint64_t killed_before =
      r.get(obs::counter::fault_inflight_killed);
  system.advance_to(kUntaggedStrike);
  const std::uint64_t untagged_killed =
      r.get(obs::counter::fault_inflight_killed) - killed_before;
  system.advance_to(util::minutes(29.0));
  const std::uint64_t during_window = allocation_count() - before;
  const window_work window = since(start, work_of(system));

  EXPECT_GT(delivered(system), 10'000u);
  EXPECT_EQ(during_window, 0u)
      << "fault-steady-state request path performed " << during_window
      << " heap allocations";
  // 2,184 wakes ran in the window, 360 of them replays (the strike on
  // group 2 replays its instance's due wakes before the kill): 27,142
  // events if every wake were one.
  EXPECT_EQ(window.wakes, 2'184u);
  EXPECT_EQ(window.events, 26'782u);
  // All four strikes fired; the machinery they exercise actually ran.
  EXPECT_GE(r.get(obs::counter::fault_preemptions), 4u);
  EXPECT_GT(untagged_killed, 0u);
  EXPECT_GT(system.metrics().background_submitted, 0u);
  EXPECT_GT(r.get(obs::counter::sdn_retries), 0u);
  EXPECT_GT(r.get(obs::counter::sdn_local_fallbacks), 0u);

  system.finish();
  // Zero loss end to end: with the local fallback on, every issued
  // request still terminates successfully despite losing the whole group.
  EXPECT_EQ(r.get(obs::counter::sdn_failures), 0u);
}

}  // namespace
}  // namespace mca
