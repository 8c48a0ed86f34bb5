#include "cloud/instance.h"

#include <gtest/gtest.h>

#include <vector>

#include "callback_sink.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace mca::cloud {
namespace {

using test_support::callback_sink;

/// Deterministic single-core reference type (no jitter, no steal).
instance_type exact_type(double vcpus = 1.0, double speed = 1.0) {
  instance_type t;
  t.name = "test.exact";
  t.vcpus = vcpus;
  t.memory_gb = 64.0;  // large admission cap
  t.cost_per_hour = 1'000;  // $0.1 per hour
  t.speed_factor = speed;
  t.jitter_sigma = 0.0;
  t.steal_max = 0.0;
  t.baseline_fraction = 1.0;
  return t;
}

/// Keeps every (tag, epoch, ok) the server reports, in order.
struct heard {
  std::uint32_t tag = 0;
  std::uint32_t epoch = 0;
  bool ok = false;
  friend bool operator==(const heard&, const heard&) = default;
};
class tag_recorder final : public completion_sink {
 public:
  void on_completion(std::uint32_t tag, std::uint32_t epoch, util::time_ms,
                     bool ok) override {
    log.push_back({tag, epoch, ok});
  }
  std::vector<heard> log;
};

TEST(Instance, SinkHearsTaggedJobsWithTheirTagAndEpoch) {
  // A finished job reaches the sink with ok = true and a killed one with
  // ok = false, each with the tag and epoch it was submitted with; an
  // untagged job is never reported.
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  tag_recorder sink;
  server.set_completion_sink(&sink);
  ASSERT_TRUE(server.submit(1.0, 7, 3));
  ASSERT_TRUE(server.submit(1.0));
  sim.run();
  EXPECT_EQ(sink.log, (std::vector<heard>{{7, 3, true}}));
  ASSERT_TRUE(server.submit(1.0));
  ASSERT_TRUE(server.submit(1.0, 9, 1));
  EXPECT_EQ(server.preempt(), 2u);
  EXPECT_EQ(sink.log, (std::vector<heard>{{7, 3, true}, {9, 1, false}}));
}

TEST(Instance, SingleJobServiceTimeIsWorkPlusSpawn) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  obs::registry counts;
  server.set_observability(&counts);
  double service = -1.0;
  ASSERT_TRUE(
      server.submit(10.0, sink.tag([&](double t, bool) { service = t; })));
  sim.run();
  // 10 wu compute + 8 wu dalvikvm spawn at 1 wu/ms.
  EXPECT_NEAR(service, 18.0, 1e-9);
  EXPECT_EQ(counts.get(obs::counter::ps_completions), 1u);
}

TEST(Instance, SpeedFactorDividesServiceTime) {
  sim::simulation sim;
  instance server{sim, exact_type(1.0, 2.0), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  double service = -1.0;
  server.submit(10.0, sink.tag([&](double t, bool) { service = t; }));
  sim.run();
  EXPECT_NEAR(service, 9.0, 1e-9);
}

TEST(Instance, ProcessorSharingDoublesWithTwoJobs) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  std::vector<double> services;
  server.submit(10.0, sink.tag([&](double t, bool) { services.push_back(t); }));
  server.submit(10.0, sink.tag([&](double t, bool) { services.push_back(t); }));
  sim.run();
  ASSERT_EQ(services.size(), 2u);
  // Both 18-wu jobs share one core: each sees 36 ms.
  EXPECT_NEAR(services[0], 36.0, 1e-6);
  EXPECT_NEAR(services[1], 36.0, 1e-6);
}

TEST(Instance, MultipleCoresAvoidSharingPenalty) {
  sim::simulation sim;
  instance server{sim, exact_type(2.0), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  std::vector<double> services;
  server.submit(10.0, sink.tag([&](double t, bool) { services.push_back(t); }));
  server.submit(10.0, sink.tag([&](double t, bool) { services.push_back(t); }));
  sim.run();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_NEAR(services[0], 18.0, 1e-6);
  EXPECT_NEAR(services[1], 18.0, 1e-6);
}

TEST(Instance, LateArrivalSharesRemainingWork) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  std::vector<std::pair<double, double>> completions;  // (finish, service)
  server.submit(10.0, sink.tag([&](double t, bool) {
    completions.push_back({sim.now(), t});
  }));
  sim.schedule_at(9.0, [&] {
    server.submit(1.0, sink.tag([&](double t, bool) {
      completions.push_back({sim.now(), t});
    }));
  });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  // Job A runs alone for 9 ms (9 wu done, 9 left), then shares.  Job B is
  // 9 wu total.  Both have 9 wu left at t=9 and finish together at t=27;
  // their in-server times are 27 (A) and 18 (B), in either callback order.
  EXPECT_NEAR(completions[0].first, 27.0, 1e-6);
  EXPECT_NEAR(completions[1].first, 27.0, 1e-6);
  std::vector<double> services{completions[0].second, completions[1].second};
  std::sort(services.begin(), services.end());
  EXPECT_NEAR(services[0], 18.0, 1e-6);
  EXPECT_NEAR(services[1], 27.0, 1e-6);
}

TEST(Instance, AdmissionCapDropsExcess) {
  sim::simulation sim;
  auto type = exact_type();
  type.memory_gb = 0.1;  // floor cap applies
  instance server{sim, type, util::rng{1}};
  obs::registry counts;
  server.set_observability(&counts);
  const auto cap = type.max_concurrent();
  int accepted = 0;
  for (std::size_t i = 0; i < cap + 2; ++i) {
    if (server.submit(5.0)) ++accepted;
  }
  EXPECT_EQ(static_cast<std::size_t>(accepted), cap);
  EXPECT_EQ(counts.get(obs::counter::ps_drops), 2u);
  EXPECT_EQ(server.active_jobs(), cap);
}

TEST(Instance, DrainRejectsNewWorkButFinishesRunning) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  bool finished = false;
  server.submit(10.0, sink.tag([&](double, bool) { finished = true; }));
  server.drain();
  EXPECT_FALSE(server.submit(1.0));
  EXPECT_TRUE(server.draining());
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(server.idle());
}

TEST(Instance, NegativeWorkThrows) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  EXPECT_THROW(server.submit(-1.0), std::invalid_argument);
}

TEST(Instance, ServiceStatsTrackCompletions) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  util::running_stats stats;
  const auto record = sink.tag([&](double t, bool) { stats.add(t); });
  server.submit(2.0, record);
  sim.run();
  server.submit(12.0, record);
  sim.run();
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_NEAR(stats.mean(), 15.0, 1e-9);  // (10+20)/2
}

TEST(Instance, StealSlowsServiceUnderContention) {
  sim::simulation sim;
  auto micro = exact_type();
  micro.steal_max = 0.5;
  instance stealing{sim, micro, util::rng{1}};
  instance clean{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  stealing.set_completion_sink(&sink);
  clean.set_completion_sink(&sink);
  std::vector<double> steal_times;
  std::vector<double> clean_times;
  for (int i = 0; i < 4; ++i) {
    stealing.submit(10.0, sink.tag([&](double t, bool) {
      steal_times.push_back(t);
    }));
    clean.submit(10.0, sink.tag([&](double t, bool) {
      clean_times.push_back(t);
    }));
  }
  sim.run();
  ASSERT_EQ(steal_times.size(), 4u);
  // With 4-way contention steal(4) = 0.5 * 4/12 = 1/6 -> 20% slower.
  EXPECT_GT(steal_times.front(), clean_times.front() * 1.15);
}

TEST(Instance, JitterPerturbsServiceTimes) {
  sim::simulation sim;
  auto noisy = exact_type();
  noisy.jitter_sigma = 0.3;
  instance server{sim, noisy, util::rng{7}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  std::vector<double> services;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(i * 1000.0, [&] {
      server.submit(10.0,
                    sink.tag([&](double t, bool) { services.push_back(t); }));
    });
  }
  sim.run();
  ASSERT_EQ(services.size(), 50u);
  double lo = services[0];
  double hi = services[0];
  for (double s : services) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi - lo, 1.0);  // visible spread
}

TEST(Instance, CreditExhaustionThrottlesToBaseline) {
  sim::simulation sim;
  auto type = exact_type();
  type.baseline_fraction = 0.1;
  instance::options opts;
  opts.enable_cpu_credits = true;
  opts.initial_credits_core_ms = 50.0;
  instance server{sim, type, util::rng{1}, opts};
  callback_sink sink;
  server.set_completion_sink(&sink);
  double service = -1.0;
  // 100 wu total.
  server.submit(92.0, sink.tag([&](double t, bool) { service = t; }));
  sim.run();
  // Full speed while credits last: net drain 0.9/ms -> 55.55 ms doing
  // 55.55 wu.  The remaining 44.44 wu run at 0.1 wu/ms -> 444.4 ms.
  EXPECT_NEAR(service, 55.5556 + 444.444, 1.0);
  EXPECT_TRUE(server.throttled());
}

TEST(Instance, CreditsRecoverWhenIdle) {
  sim::simulation sim;
  auto type = exact_type();
  type.baseline_fraction = 0.5;
  instance::options opts;
  opts.enable_cpu_credits = true;
  opts.initial_credits_core_ms = 10.0;
  instance server{sim, type, util::rng{1}, opts};
  server.submit(42.0);
  sim.run_until(1'000.0);  // untagged: the read below replays the work
  const double after_work = server.credit_balance();
  server.submit(0.0);  // forces an advance() much later
  sim.run_until(10'000.0);
  server.submit(0.0);
  sim.run();
  EXPECT_GT(server.credit_balance(), after_work);
}

TEST(Instance, CreditsDisabledMeansNeverThrottled) {
  sim::simulation sim;
  auto type = exact_type();
  type.baseline_fraction = 0.05;
  instance server{sim, type, util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  double service = -1.0;
  server.submit(10'000.0, sink.tag([&](double t, bool) { service = t; }));
  sim.run();
  EXPECT_FALSE(server.throttled());
  // Full speed throughout: 10,008 wu in 10,008 ms.
  EXPECT_NEAR(service, 10'008.0, 1e-6);
}

// Property sweep: processor sharing conserves work — however arrivals
// interleave, the server's busy time equals total work / speed, and the
// last completion lands exactly when all work is done (single core).
class WorkConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkConservation, BusyTimeEqualsTotalWork) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  obs::registry counts;
  server.set_observability(&counts);
  util::rng rng{GetParam()};
  double total_work = 0.0;
  double last_arrival = 0.0;
  const int jobs = static_cast<int>(rng.uniform_int(2, 12));
  std::vector<double> completion_times;
  const auto done = sink.tag([&completion_times, &sim](double, bool) {
    completion_times.push_back(sim.now());
  });
  for (int i = 0; i < jobs; ++i) {
    // Arrivals packed densely enough that the server never idles.
    last_arrival += rng.uniform(0.0, 3.0);
    const double work = rng.uniform(1.0, 30.0);
    total_work += work + 8.0;  // + spawn overhead
    sim.schedule_at(last_arrival,
                    [&server, work, done] { server.submit(work, done); });
  }
  sim.run();
  ASSERT_EQ(completion_times.size(), static_cast<std::size_t>(jobs));
  // No idle gaps (arrival gaps < smallest job) -> last completion at
  // first_arrival-independent bound: total busy time = total work.
  double latest = 0.0;
  for (const double t : completion_times) latest = std::max(latest, t);
  EXPECT_LE(latest, total_work + last_arrival + 1e-6);
  EXPECT_GE(latest, total_work - 1e-6);
  EXPECT_EQ(counts.get(obs::counter::ps_completions),
            static_cast<std::uint64_t>(jobs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkConservation,
                         ::testing::Range<std::uint64_t>(200, 216));

TEST(Instance, CompletionCallbackMayResubmit) {
  sim::simulation sim;
  instance server{sim, exact_type(), util::rng{1}};
  callback_sink sink;
  server.set_completion_sink(&sink);
  int completions = 0;
  std::uint32_t resubmit = 0;
  resubmit = sink.tag([&](double, bool) {
    if (++completions < 3) server.submit(2.0, resubmit);
  });
  server.submit(2.0, resubmit);
  sim.run();
  EXPECT_EQ(completions, 3);
  EXPECT_NEAR(sim.now(), 30.0, 1e-9);  // 3 x 10 ms back to back
}

}  // namespace
}  // namespace mca::cloud
