// Differential test: the analytic virtual-time processor-sharing
// implementation in cloud::instance against the pre-overhaul per-event
// sweep, kept here as a reference oracle.
//
// The oracle re-implements the legacy algorithm verbatim: every event
// sweeps all active jobs decrementing `remaining_wu`, the next completion
// is an O(n) min scan, and the pending event is cancelled and re-inserted
// on every state change.  Both implementations draw identical rng streams
// (one lognormal per accepted submission), so any divergence beyond
// floating-point noise is a semantics bug in the rewrite, not workload
// randomness.
//
// Expected agreement: admission/drop decisions, completion counts, and
// per-job completion/service times to 1e-6 ms.  Bit-identity is NOT
// expected — the virtual-time formulation rounds through a shared clock
// where the sweep rounded per-job — which is exactly why these traces
// (simultaneous-finish batches, kWorkEpsilon near-ties, credit
// exhaustion, drains, callback resubmission) pin the semantics instead.
#include "cloud/instance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "callback_sink.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace mca::cloud {
namespace {

constexpr double kWorkEpsilon = 1e-6;  // mirrors instance.cpp

/// What a job does when it leaves the server (the legacy interface).
using completion_fn = std::function<void(util::time_ms service_time, bool ok)>;

// ---------------------------------------------------------------------------
// Legacy oracle: the event-rescheduling PS instance exactly as shipped
// before the virtual-time overhaul (per-job remaining_wu, O(n) sweeps,
// cancel + re-insert per event).  Do not modernize.
// ---------------------------------------------------------------------------
class legacy_ps_oracle {
 public:
  legacy_ps_oracle(sim::simulation& sim, const instance_type& type,
                   util::rng rng, instance::options opts)
      : sim_{sim},
        type_{type},
        rng_{rng},
        opts_{opts},
        last_update_{sim.now()},
        credits_{opts.initial_credits_core_ms} {}

  ~legacy_ps_oracle() {
    if (pending_.valid()) sim_.cancel(pending_);
  }

  bool submit(double work_units, completion_fn on_complete) {
    if (work_units < 0.0) throw std::invalid_argument{"submit: negative work"};
    if (draining_ || active_.size() >= type_.max_concurrent()) {
      ++dropped_;
      return false;
    }
    advance();
    const double noisy = work_units * rng_.lognormal(0.0, type_.jitter_sigma) +
                         k_spawn_overhead_wu;
    jobs_.push_back({noisy, sim_.now(), std::move(on_complete)});
    active_.push_back(static_cast<std::uint32_t>(jobs_.size() - 1));
    reschedule();
    return true;
  }

  void drain() noexcept { draining_ = true; }
  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  double credit_balance() const noexcept { return credits_; }
  bool throttled() const noexcept {
    return opts_.enable_cpu_credits && credits_ <= 0.0;
  }

 private:
  struct job {
    double remaining_wu = 0.0;
    util::time_ms submitted_at = 0.0;
    completion_fn on_complete;
  };

  double steal(std::size_t n) const noexcept {
    if (type_.steal_max <= 0.0 || n == 0) return 0.0;
    const double x = static_cast<double>(n);
    return type_.steal_max * x / (x + 8.0);
  }

  double effective_cores() const noexcept {
    if (opts_.enable_cpu_credits && credits_ <= 0.0) {
      return std::max(type_.baseline_fraction * type_.vcpus, 0.05);
    }
    return type_.vcpus;
  }

  double rate_per_job(std::size_t n) const noexcept {
    if (n == 0) return 0.0;
    const double cores = effective_cores();
    const double share = std::min(1.0, cores / static_cast<double>(n));
    return type_.speed_factor * (1.0 - steal(n)) * share;
  }

  void advance() {
    const util::time_ms now = sim_.now();
    const double elapsed = now - last_update_;
    if (elapsed <= 0.0) {
      last_update_ = now;
      return;
    }
    const std::size_t n = active_.size();
    if (n > 0) {
      const double done = elapsed * rate_per_job(n);
      for (const std::uint32_t idx : active_) jobs_[idx].remaining_wu -= done;
      const double busy = std::min(static_cast<double>(n), effective_cores());
      if (opts_.enable_cpu_credits) {
        const double accrual = type_.baseline_fraction * type_.vcpus;
        credits_ += elapsed * (accrual - busy);
        credits_ = std::clamp(credits_, 0.0,
                              24.0 * 3'600'000.0 * accrual);
      }
    } else if (opts_.enable_cpu_credits) {
      const double accrual = type_.baseline_fraction * type_.vcpus;
      credits_ = std::min(credits_ + elapsed * accrual,
                          24.0 * 3'600'000.0 * accrual);
    }
    last_update_ = now;
  }

  void reschedule() {
    if (pending_.valid()) {
      sim_.cancel(pending_);
      pending_ = {};
    }
    if (active_.empty()) return;
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const std::uint32_t idx : active_) {
      min_remaining = std::min(min_remaining, jobs_[idx].remaining_wu);
    }
    const double rate = rate_per_job(active_.size());
    double eta = std::max(min_remaining, 0.0) / rate;
    if (opts_.enable_cpu_credits && credits_ > 0.0) {
      const double busy =
          std::min(static_cast<double>(active_.size()), type_.vcpus);
      const double accrual = type_.baseline_fraction * type_.vcpus;
      if (busy > accrual) {
        const double exhaustion = credits_ / (busy - accrual);
        if (exhaustion + 1e-9 < eta) eta = std::max(exhaustion, 1e-6);
      }
    }
    pending_ = sim_.schedule_after(eta, [this] { on_completion_event(); });
  }

  void on_completion_event() {
    pending_ = {};
    advance();
    std::vector<std::uint32_t> finished;
    std::size_t keep = 0;
    for (const std::uint32_t idx : active_) {
      if (jobs_[idx].remaining_wu <= kWorkEpsilon) {
        finished.push_back(idx);
      } else {
        active_[keep++] = idx;
      }
    }
    active_.resize(keep);
    for (const std::uint32_t idx : finished) {
      job& j = jobs_[idx];
      const util::time_ms service_time = sim_.now() - j.submitted_at;
      completion_fn fn = std::move(j.on_complete);
      j.on_complete = nullptr;
      ++completed_;
      if (fn) fn(service_time, true);
    }
    reschedule();
  }

  sim::simulation& sim_;
  instance_type type_;
  util::rng rng_;
  instance::options opts_;
  std::vector<job> jobs_;
  std::vector<std::uint32_t> active_;
  sim::event_handle pending_{};
  util::time_ms last_update_ = 0.0;
  double credits_ = 0.0;
  bool draining_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
};

// The instance behind the oracle's callback interface: each submission's
// callback runs from a callback_sink under a tag of its own.
class callback_instance : public instance {
 public:
  callback_instance(sim::simulation& sim, instance_id id,
                    const instance_type& type, util::rng rng,
                    instance::options opts)
      : instance{sim, id, type, rng, opts} {
    set_completion_sink(&sink_);
  }

  bool submit(double work_units, completion_fn on_complete) {
    return instance::submit(work_units, sink_.tag(std::move(on_complete)));
  }

 private:
  test_support::callback_sink sink_;
};

// ---------------------------------------------------------------------------
// Trace driver: replays the same submission schedule against either
// implementation and records what happened.
// ---------------------------------------------------------------------------
struct trace_op {
  util::time_ms at = 0.0;
  double work = 0.0;
};

struct trace_result {
  std::vector<char> accepted;            // per op
  std::vector<double> completion_at;     // per op, -1 if never completed
  std::vector<double> service;           // per op, -1 if never completed
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  double credits = 0.0;
  bool throttled = false;
};

template <typename Server, typename... Extra>
trace_result run_trace(const instance_type& type, instance::options opts,
                       const std::vector<trace_op>& ops, double drain_at,
                       std::uint64_t seed, Extra&&... extra) {
  sim::simulation sim;
  Server server{sim, std::forward<Extra>(extra)..., type, util::rng{seed},
                opts};
  // The instance counts completions and drops in its registry; the
  // oracle keeps its own tallies.
  constexpr bool kInstance = std::is_same_v<Server, callback_instance>;
  obs::registry counts;
  if constexpr (kInstance) server.set_observability(&counts);
  trace_result r;
  r.accepted.assign(ops.size(), 0);
  r.completion_at.assign(ops.size(), -1.0);
  r.service.assign(ops.size(), -1.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    sim.schedule_at(ops[i].at, [&, i] {
      r.accepted[i] = server.submit(ops[i].work,
                                    [&r, i, &sim](double s, bool) {
                                      r.completion_at[i] = sim.now();
                                      r.service[i] = s;
                                    })
                          ? 1
                          : 0;
    });
  }
  if (drain_at >= 0.0) {
    sim.schedule_at(drain_at, [&server] { server.drain(); });
  }
  sim.run();
  if constexpr (kInstance) {
    r.completed = counts.get(obs::counter::ps_completions);
    r.dropped = counts.get(obs::counter::ps_drops);
  } else {
    r.completed = server.completed();
    r.dropped = server.dropped();
  }
  r.credits = server.credit_balance();
  r.throttled = server.throttled();
  return r;
}

trace_result run_new(const instance_type& type, instance::options opts,
                     const std::vector<trace_op>& ops, double drain_at,
                     std::uint64_t seed) {
  return run_trace<callback_instance>(type, opts, ops, drain_at, seed,
                                      static_cast<instance_id>(1));
}

trace_result run_legacy(const instance_type& type, instance::options opts,
                        const std::vector<trace_op>& ops, double drain_at,
                        std::uint64_t seed) {
  return run_trace<legacy_ps_oracle>(type, opts, ops, drain_at, seed);
}

void expect_equivalent(const trace_result& vt, const trace_result& legacy,
                       double tol = 1e-6) {
  ASSERT_EQ(vt.accepted.size(), legacy.accepted.size());
  EXPECT_EQ(vt.completed, legacy.completed);
  EXPECT_EQ(vt.dropped, legacy.dropped);
  EXPECT_EQ(vt.throttled, legacy.throttled);
  EXPECT_NEAR(vt.credits, legacy.credits, 1e-3);
  for (std::size_t i = 0; i < vt.accepted.size(); ++i) {
    EXPECT_EQ(vt.accepted[i], legacy.accepted[i]) << "op " << i;
    EXPECT_NEAR(vt.completion_at[i], legacy.completion_at[i], tol)
        << "op " << i;
    EXPECT_NEAR(vt.service[i], legacy.service[i], tol) << "op " << i;
  }
}

instance_type base_type() {
  instance_type t;
  t.name = "diff.test";
  t.vcpus = 2.0;
  t.memory_gb = 64.0;
  t.cost_per_hour = 0.1;
  t.speed_factor = 1.0;
  t.jitter_sigma = 0.0;
  t.steal_max = 0.0;
  t.baseline_fraction = 1.0;
  return t;
}

// ---------------------------------------------------------------------------
// Deterministic cases
// ---------------------------------------------------------------------------

TEST(PsDifferential, SimultaneousFinishersDrainAsOneBatchInOrder) {
  // Five identical jobs submitted at the same instant finish at the same
  // instant; both implementations must complete all of them at one time,
  // in submission order.
  std::vector<trace_op> ops;
  for (int i = 0; i < 5; ++i) ops.push_back({10.0, 12.0});
  const auto vt = run_new(base_type(), {}, ops, -1.0, 3);
  const auto legacy = run_legacy(base_type(), {}, ops, -1.0, 3);
  expect_equivalent(vt, legacy);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(vt.completion_at[i], vt.completion_at[0]);
  }
}

TEST(PsDifferential, WithinEpsilonFinishersCompleteTogether) {
  // Work totals differing by less than kWorkEpsilon complete in the same
  // event in both implementations (remaining <= eps when the first one
  // finishes); totals differing by more complete apart.
  std::vector<trace_op> together = {{0.0, 20.0},
                                    {0.0, 20.0 + 0.25 * kWorkEpsilon}};
  auto vt = run_new(base_type(), {}, together, -1.0, 4);
  auto legacy = run_legacy(base_type(), {}, together, -1.0, 4);
  expect_equivalent(vt, legacy);
  EXPECT_EQ(vt.completion_at[0], vt.completion_at[1]);

  std::vector<trace_op> apart = {{0.0, 20.0}, {0.0, 20.0 + 1e-3}};
  vt = run_new(base_type(), {}, apart, -1.0, 4);
  legacy = run_legacy(base_type(), {}, apart, -1.0, 4);
  expect_equivalent(vt, legacy);
  EXPECT_LT(vt.completion_at[0], vt.completion_at[1]);
}

TEST(PsDifferential, DrainCutsAdmissionIdentically) {
  std::vector<trace_op> ops = {
      {0.0, 30.0}, {5.0, 30.0}, {60.0, 10.0}, {70.0, 10.0}};
  const auto vt = run_new(base_type(), {}, ops, 50.0, 5);
  const auto legacy = run_legacy(base_type(), {}, ops, 50.0, 5);
  expect_equivalent(vt, legacy);
  EXPECT_EQ(vt.accepted[2], 0);
  EXPECT_EQ(vt.accepted[3], 0);
  EXPECT_EQ(vt.dropped, 2u);
}

TEST(PsDifferential, CreditExhaustionSlopeChangeAgrees) {
  auto type = base_type();
  type.vcpus = 1.0;
  type.baseline_fraction = 0.1;
  instance::options opts;
  opts.enable_cpu_credits = true;
  opts.initial_credits_core_ms = 40.0;
  // One long job exhausts the balance mid-flight; a second arrives while
  // throttled; both finish under the baseline slope.
  std::vector<trace_op> ops = {{0.0, 100.0}, {200.0, 5.0}};
  const auto vt = run_new(type, opts, ops, -1.0, 6);
  const auto legacy = run_legacy(type, opts, ops, -1.0, 6);
  expect_equivalent(vt, legacy, 1e-5);
  EXPECT_TRUE(vt.throttled);
}

// ---------------------------------------------------------------------------
// Randomized sweep: mixed arrival bursts, jitter, steal, occasional
// near-zero work, drains, and credit configs across seeds.
// ---------------------------------------------------------------------------
class PsDifferentialRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsDifferentialRandom, TraceMatchesLegacySweep) {
  const std::uint64_t seed = GetParam();
  util::rng gen{seed * 977 + 11};

  auto type = base_type();
  type.vcpus = (seed % 3 == 0) ? 1.0 : 2.0;
  type.jitter_sigma = (seed % 2 == 0) ? 0.3 : 0.0;
  type.steal_max = (seed % 4 == 0) ? 0.4 : 0.0;
  if (seed % 5 == 1) type.memory_gb = 0.4;  // small admission cap -> drops

  instance::options opts;
  if (seed % 3 == 2) {
    opts.enable_cpu_credits = true;
    opts.initial_credits_core_ms = gen.uniform(20.0, 120.0);
    type.baseline_fraction = 0.2;
  }

  std::vector<trace_op> ops;
  double at = 0.0;
  const int n = 30 + static_cast<int>(gen.uniform_int(0, 40));
  for (int i = 0; i < n; ++i) {
    // ~1/3 of arrivals land on the previous timestamp (burst), the rest
    // advance by a random gap that sometimes lets the server go idle.
    if (i > 0 && gen.uniform() < 0.33) {
      at = ops.back().at;
    } else {
      at += gen.uniform(0.0, 40.0);
    }
    double work = gen.uniform(0.5, 60.0);
    if (gen.uniform() < 0.1) work = gen.uniform(0.0, 1e-3);  // near-zero
    ops.push_back({at, work});
  }
  const double drain_at = (seed % 7 == 3) ? at * 0.6 : -1.0;

  const auto vt = run_new(type, opts, ops, drain_at, seed);
  const auto legacy = run_legacy(type, opts, ops, drain_at, seed);
  // Tolerance: the kWorkEpsilon (1e-6 wu) drain threshold converts to
  // time as eps / rate.  Under the credit throttle the per-job rate can
  // fall to baseline_fraction * vcpus / n ~ 0.02 wu/ms, so a job on the
  // batching boundary may legitimately land eps/rate ~ 5e-5 ms apart
  // between the two implementations (relative error ~1e-8).  5e-4 ms of
  // simulated time bounds a few such boundary events per trace while
  // still catching any semantic divergence (wrong n, wrong slope, lost
  // wake-up), which shows up as whole milliseconds.
  expect_equivalent(vt, legacy, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsDifferentialRandom,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(PsDifferential, CallbackResubmissionChainsAgree) {
  // A completion callback that immediately resubmits exercises the
  // submit-during-drain-of-completions path in both implementations.
  auto run_chain = [](auto&& make_server) {
    sim::simulation sim;
    auto server = make_server(sim);
    std::vector<double> times;
    std::function<void(double, bool)> resubmit = [&](double, bool) {
      times.push_back(sim.now());
      if (times.size() < 4) server->submit(3.0, resubmit);
    };
    server->submit(3.0, resubmit);
    sim.run();
    return times;
  };
  const auto vt_times = run_chain([](sim::simulation& sim) {
    return std::make_unique<callback_instance>(
        sim, 1, base_type(), util::rng{9}, instance::options{});
  });
  const auto legacy_times = run_chain([](sim::simulation& sim) {
    return std::make_unique<legacy_ps_oracle>(sim, base_type(), util::rng{9},
                                              instance::options{});
  });
  ASSERT_EQ(vt_times.size(), 4u);
  ASSERT_EQ(legacy_times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(vt_times[i], legacy_times[i], 1e-6);
  }
}

}  // namespace
}  // namespace mca::cloud
