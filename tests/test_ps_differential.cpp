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
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "callback_sink.h"
#include "core/system.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/rng.h"
#include "workload/generator.h"

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
  callback_instance(sim::simulation& sim, const instance_type& type,
                    util::rng rng, instance::options opts)
      : instance{sim, type, rng, opts} {
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

template <typename Server>
trace_result run_trace(const instance_type& type, instance::options opts,
                       const std::vector<trace_op>& ops, double drain_at,
                       std::uint64_t seed) {
  sim::simulation sim;
  Server server{sim, type, util::rng{seed}, opts};
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
  return run_trace<callback_instance>(type, opts, ops, drain_at, seed);
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
  t.cost_per_hour = 1'000;  // $0.1 per hour
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
        sim, base_type(), util::rng{9}, instance::options{});
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

// ---------------------------------------------------------------------------
// Deferred-wake replay: an instance whose active jobs are all untagged
// keeps its completion wake out of the engine and replays it when read.
// The reference runs the same submissions with every job tagged, which
// keeps every wake an engine event, so the library gives its own eager
// schedule; every read and every PS count must come out identical.
// ---------------------------------------------------------------------------

/// The PS counts a read records.
constexpr std::array<obs::counter, 5> kReplayCounters = {
    obs::counter::ps_completions, obs::counter::ps_completion_events,
    obs::counter::ps_spurious_wakes, obs::counter::ps_vclock_resets,
    obs::counter::ps_drops};
using replay_counts = std::array<std::uint64_t, kReplayCounters.size()>;

replay_counts counts_of(const obs::registry& r) {
  replay_counts out{};
  for (std::size_t i = 0; i < kReplayCounters.size(); ++i) {
    out[i] = r.get(kReplayCounters[i]);
  }
  return out;
}

struct replay_job {
  util::time_ms at = 0.0;
  double work = 0.0;
  bool tagged = false;
};

enum class read_kind { active_jobs, idle, preempt };

/// A read of the instance.  `lead` < 0: scheduled before the run starts,
/// so it sorts before every wake armed later at an equal time.  `lead` >=
/// 0: scheduled by a helper event at `at - lead` that reads the instance
/// first, so a wake armed before the helper sorts before it.
struct replay_read {
  util::time_ms at = 0.0;
  read_kind kind = read_kind::active_jobs;
  double lead = -1.0;
  bool tie = false;  ///< `at` is a completion time of the reference run
};

struct read_record {
  util::time_ms at = 0.0;
  std::uint64_t value = 0;
  replay_counts counts{};
};

struct replay_result {
  std::vector<read_record> reads;     ///< in the order they ran
  std::vector<double> completion_at;  ///< per job: heard completion, or -1
  std::vector<double> completions;    ///< every heard completion time
  replay_counts final_counts{};
  std::size_t engine_events = 0;
  std::size_t wake_first_ties = 0;    ///< tie reads that found the wake run
  std::size_t reader_first_ties = 0;
};

/// Hears tag i as job i.
class job_sink final : public completion_sink {
 public:
  job_sink(const sim::simulation& sim, replay_result& out)
      : sim_{sim}, out_{out} {}
  void on_completion(std::uint32_t tag, std::uint32_t, util::time_ms,
                     bool ok) override {
    if (!ok) return;
    out_.completion_at[tag] = sim_.now();
    out_.completions.push_back(sim_.now());
  }

 private:
  const sim::simulation& sim_;
  replay_result& out_;
};

replay_result run_replay(const instance_type& type, instance::options opts,
                         const std::vector<replay_job>& jobs,
                         const std::vector<replay_read>& reads,
                         std::vector<util::time_ms> deadlines,
                         bool all_tagged, std::uint64_t seed) {
  sim::simulation sim;
  instance server{sim, type, util::rng{seed}, opts};
  obs::registry counts;
  server.set_observability(&counts);
  replay_result r;
  r.completion_at.assign(jobs.size(), -1.0);
  job_sink sink{sim, r};
  server.set_completion_sink(&sink);

  const auto record = [&](std::uint64_t value) {
    r.reads.push_back({sim.now(), value, counts_of(counts)});
  };
  const auto read = [&](const replay_read& op) {
    if (op.tie) {
      const bool fired = std::count(r.completions.begin(),
                                    r.completions.end(), sim.now()) > 0;
      ++(fired ? r.wake_first_ties : r.reader_first_ties);
    }
    switch (op.kind) {
      case read_kind::active_jobs: record(server.active_jobs()); break;
      case read_kind::idle: record(server.idle() ? 1 : 0); break;
      case read_kind::preempt: record(server.preempt()); break;
    }
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sim.schedule_at(jobs[i].at, [&, i] {
      const bool tagged = all_tagged || jobs[i].tagged;
      server.submit(jobs[i].work,
                    tagged ? static_cast<std::uint32_t>(i)
                           : instance::kUntagged);
    });
  }
  for (const replay_read& op : reads) {
    if (op.lead < 0.0) {
      sim.schedule_at(op.at, [&read, &op] { read(op); });
      continue;
    }
    sim.schedule_at(op.at - op.lead, [&] {
      record(server.active_jobs());
      sim.schedule_at(op.at, [&read, &op] { read(op); });
    });
  }
  // Reads outside any event, each right after run_until reaches it.
  std::sort(deadlines.begin(), deadlines.end());
  for (const util::time_ms deadline : deadlines) {
    sim.run_until(deadline);
    record(server.active_jobs());
  }
  sim.run();
  sim.run_until(sim.now() + util::hours(1.0));
  server.settle();
  r.final_counts = counts_of(counts);
  r.engine_events = sim.executed_events();
  return r;
}

/// Tie reads of the reference run, by which side of the tie ran first,
/// and the engine events a mix with tagged work saved.
struct replay_stats {
  std::size_t wake_first = 0;
  std::size_t reader_first = 0;
  std::size_t mixed_events_saved = 0;
};

/// One random trace: mixed against all-tagged, then against the legacy
/// sweep.
replay_stats check_replay(std::uint64_t seed) {
  util::rng gen{seed * 7919 + 5};

  auto type = base_type();
  type.vcpus = (seed % 3 == 0) ? 1.0 : 4.0;
  type.jitter_sigma = (seed % 2 == 0) ? 0.3 : 0.0;
  type.steal_max = (seed % 4 == 1) ? 0.4 : 0.0;
  if (seed % 5 == 2) type.memory_gb = 0.4;  // small admission cap -> drops
  instance::options opts;
  if (seed % 3 == 1) {
    opts.enable_cpu_credits = true;
    opts.initial_credits_core_ms = gen.uniform(20.0, 200.0);
    type.baseline_fraction = 0.2;
  }
  // Background only, sparse tagged work, or a busy mix.
  const double tagged_share = (seed % 4 == 0) ? 0.0 : (seed % 4 == 1) ? 0.1
                                                                      : 0.35;

  std::vector<replay_job> jobs;
  double at = 0.0;
  const int n = 40 + static_cast<int>(gen.uniform_int(0, 40));
  for (int i = 0; i < n; ++i) {
    if (i > 0 && gen.uniform() < 0.3) {
      at = jobs.back().at;  // a burst on one timestamp
    } else {
      at += gen.uniform(0.0, 30.0);
    }
    double work = gen.uniform(0.5, 50.0);
    if (gen.uniform() < 0.1) work = gen.uniform(0.0, 1e-3);
    const bool tagged = gen.uniform() < tagged_share;
    jobs.push_back({at, work, tagged});
  }
  const util::time_ms horizon = at + 100.0;

  std::vector<replay_read> reads;
  for (int i = 0; i < 24; ++i) {
    const util::time_ms when = gen.uniform(0.0, horizon);
    const read_kind kind =
        gen.uniform() < 0.5 ? read_kind::active_jobs : read_kind::idle;
    reads.push_back({when, kind, -1.0, false});
  }
  std::vector<util::time_ms> deadlines;
  for (int i = 0; i < 4; ++i) deadlines.push_back(gen.uniform(0.0, horizon));

  // First pass: the reference's completion times are the wake times the
  // tie reads and tie deadlines land on.
  const replay_result probe =
      run_replay(type, opts, jobs, reads, deadlines, true, seed);
  std::vector<double> wakes = probe.completions;
  wakes.erase(std::unique(wakes.begin(), wakes.end()), wakes.end());
  EXPECT_GT(wakes.size(), 4u);
  util::time_ms preempt_at = -1.0;
  if (seed % 2 == 1) {
    // A spot kill late in the trace; on every other such seed, exactly on
    // a wake, before it.
    preempt_at = (seed % 4 == 3) ? wakes[wakes.size() * 3 / 4]
                                 : gen.uniform(0.7, 1.0) * at;
  }
  for (std::size_t i = 0; i < wakes.size(); i += 1 + wakes.size() / 16) {
    if (preempt_at >= 0.0 && wakes[i] >= preempt_at) break;
    const read_kind kind = (i / 2) % 2 == 0 ? read_kind::active_jobs
                                            : read_kind::idle;
    const double lead = (i % 2 == 0) ? -1.0 : (i % 3 == 0 ? 2.0 : 1e-3);
    reads.push_back({wakes[i], kind, lead, true});
    if (i % 5 == 0) deadlines.push_back(wakes[i]);
  }
  if (preempt_at >= 0.0) {
    reads.push_back({preempt_at, read_kind::preempt, -1.0, false});
  }

  const replay_result mixed =
      run_replay(type, opts, jobs, reads, deadlines, false, seed);
  const replay_result eager =
      run_replay(type, opts, jobs, reads, deadlines, true, seed);

  // Every read, in order, saw the same job count and the same PS counts.
  EXPECT_EQ(mixed.reads.size(), eager.reads.size());
  for (std::size_t i = 0;
       i < std::min(mixed.reads.size(), eager.reads.size()); ++i) {
    EXPECT_EQ(mixed.reads[i].at, eager.reads[i].at) << "read " << i;
    EXPECT_EQ(mixed.reads[i].value, eager.reads[i].value) << "read " << i;
    EXPECT_EQ(mixed.reads[i].counts, eager.reads[i].counts) << "read " << i;
  }
  EXPECT_EQ(mixed.final_counts, eager.final_counts);
  // Tagged jobs complete at the same instant, bit for bit.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].tagged) continue;
    EXPECT_EQ(mixed.completion_at[i], eager.completion_at[i]) << "job " << i;
  }
  // A deferred wake costs the engine nothing; a busy mix may never leave
  // its instance without tagged work.
  EXPECT_LE(mixed.engine_events, eager.engine_events);
  if (tagged_share == 0.0) {
    EXPECT_EQ(eager.engine_events - mixed.engine_events,
              eager.final_counts[1]);
  }

  // Tagged service times still match the legacy sweep (which knows no
  // preemption: compare the jobs that finished before the kill).
  std::vector<trace_op> ops;
  for (const replay_job& j : jobs) ops.push_back({j.at, j.work});
  const trace_result legacy = run_legacy(type, opts, ops, -1.0, seed);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].tagged || mixed.completion_at[i] < 0.0) continue;
    EXPECT_NEAR(mixed.completion_at[i], legacy.completion_at[i], 5e-4)
        << "job " << i;
  }

  return {eager.wake_first_ties, eager.reader_first_ties,
          tagged_share > 0.0 ? eager.engine_events - mixed.engine_events
                             : 0};
}

TEST(PsReplay, DeferredWakesReplayTheEagerSchedule) {
  replay_stats total;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE(seed);
    const replay_stats s = check_replay(seed);
    total.wake_first += s.wake_first;
    total.reader_first += s.reader_first;
    total.mixed_events_saved += s.mixed_events_saved;
  }
  // Reads landed on wake times on both sides of the FIFO tie, and the
  // mixes went background-only (deferred, then promoted) along the way.
  EXPECT_GT(total.wake_first, 20u);
  EXPECT_GT(total.reader_first, 20u);
  EXPECT_GT(total.mixed_events_saved, 100u);
}

TEST(PsReplay, AdvanceToReturnsWithTheBackEndSettled) {
  // offloading_system::advance_to(t) hands back a system whose registry
  // already counts every wake due by t: settling again changes nothing,
  // at a deadline between events and at one on a burst.
  tasks::task_pool pool;
  core::system_config config;
  config.groups = {{1, "t2.large", 2, 200.0}};
  config.user_count = 50;
  config.tasks = workload::static_source(pool.static_minimax_request());
  config.gaps = [](util::rng&) { return util::seconds(40.0); };
  config.slot_length = util::minutes(10.0);
  config.background_requests_per_burst = 50;
  config.record_request_series = false;
  config.seed = 17;
  core::offloading_system system{std::move(config), pool};
  system.begin(util::hours(1.0));
  const obs::registry& r = system.observability();
  for (const util::time_ms t :
       {util::minutes(3.0) + 123.4567, util::minutes(7.0), util::minutes(10.0),
        util::minutes(12.0) + 1'000.001}) {
    system.advance_to(t);
    const replay_counts advanced = counts_of(r);
    system.backend().settle();
    EXPECT_EQ(counts_of(r), advanced) << "t = " << t;
  }
  // The bursts' wakes were replayed, not run by the engine.
  EXPECT_LT(system.simulation().executed_events(),
            r.get(obs::counter::ps_completion_events));
}

}  // namespace
}  // namespace mca::cloud
