#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/empirical.h"

namespace mca::workload {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  sim::simulation sim_;
  tasks::task_pool pool_;
  std::vector<offload_request> received_;

  request_sink collect() {
    return [this](const offload_request& r) { received_.push_back(r); };
  }
};

TEST_F(GeneratorTest, ConcurrentModeEmitsUsersTimesRounds) {
  concurrent_config config;
  config.users = 30;
  config.rounds = 3;
  config.gap = util::minutes(1);
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  EXPECT_EQ(received_.size(), 90u);
}

TEST_F(GeneratorTest, ConcurrentRoundsAreSimultaneousBursts) {
  concurrent_config config;
  config.users = 10;
  config.rounds = 2;
  config.gap = 500.0;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(received_[i].created_at, 0.0);
  }
  for (std::size_t i = 10; i < 20; ++i) {
    EXPECT_EQ(received_[i].created_at, 500.0);
  }
}

TEST_F(GeneratorTest, ConcurrentUsersAreDistinctPerRound) {
  concurrent_config config;
  config.users = 25;
  config.rounds = 1;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  std::set<user_id> users;
  for (const auto& r : received_) users.insert(r.user);
  EXPECT_EQ(users.size(), 25u);
  EXPECT_EQ(*users.begin(), 0u);
  EXPECT_EQ(*users.rbegin(), 24u);
}

TEST_F(GeneratorTest, ConcurrentValidation) {
  concurrent_config bad;
  bad.users = 0;
  EXPECT_THROW(concurrent_generator(sim_, random_pool_source(pool_), collect(),
                                    bad, util::rng{1}),
               std::invalid_argument);
  concurrent_config no_rounds;
  no_rounds.rounds = 0;
  EXPECT_THROW(concurrent_generator(sim_, random_pool_source(pool_), collect(),
                                    no_rounds, util::rng{1}),
               std::invalid_argument);
  EXPECT_THROW(concurrent_generator(sim_, {}, collect(), concurrent_config{},
                                    util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, InterarrivalStopsAtDeadline) {
  interarrival_config config;
  config.devices = 5;
  config.active_duration = util::seconds(10);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             [](util::rng&) { return util::seconds(1); },
                             config,
                             util::rng{1}};
  sim_.run();
  // ~10 requests per device over 10 s at 1 Hz (initial offsets shift it).
  EXPECT_GT(received_.size(), 30u);
  EXPECT_LT(received_.size(), 60u);
  for (const auto& r : received_) {
    EXPECT_LT(r.created_at, util::seconds(10));
  }
}

TEST_F(GeneratorTest, InterarrivalUsesAllDevices) {
  interarrival_config config;
  config.devices = 8;
  config.active_duration = util::seconds(20);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             [](util::rng&) { return util::seconds(1); },
                             config,
                             util::rng{2}};
  sim_.run();
  std::set<user_id> users;
  for (const auto& r : received_) users.insert(r.user);
  EXPECT_EQ(users.size(), 8u);
}

TEST_F(GeneratorTest, ExponentialInterarrivalApproximatesRate) {
  interarrival_config config;
  config.devices = 1;
  config.active_duration = util::hours(1);
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             exponential_interarrival(2.0),
                             config,
                             util::rng{3}};
  sim_.run();
  // 2 Hz over one hour ~ 7200 requests.
  EXPECT_NEAR(static_cast<double>(received_.size()), 7'200.0, 400.0);
}

TEST_F(GeneratorTest, InterarrivalValidation) {
  EXPECT_THROW(exponential_interarrival(-1.0), std::invalid_argument);
  interarrival_config bad;
  bad.devices = 0;
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(),
                                      [](util::rng&) { return 1.0; }, bad,
                                      util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, InterarrivalRejectsMoreThan24BitsOfDevices) {
  // Rejected in the constructor before any gap is drawn or any arrival
  // is queued: nothing is allocated per device.
  interarrival_config config;
  config.devices = (std::size_t{1} << 24) + 1;
  std::size_t draws = 0;
  const interarrival_fn counting = [&draws](util::rng&) {
    ++draws;
    return 1.0;
  };
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(), counting, config,
                                      util::rng{1}),
               std::length_error);
  EXPECT_EQ(draws, 0u);
  EXPECT_EQ(sim_.pending_events(), 0u);
}

TEST_F(GeneratorTest, InterarrivalNegativeGapThrows) {
  interarrival_config config;
  config.devices = 2;
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             [](util::rng&) { return -1.0; },
                             config,
                             util::rng{1}};
  // The negative initial offsets clamp to now; the first gap drawn after
  // an emission is rejected.
  EXPECT_THROW(sim_.run(), std::invalid_argument);
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(GeneratorTest, InterarrivalOwnsTheArrivalHandler) {
  interarrival_config config;
  const interarrival_fn gap = [](util::rng&) { return 1.0; };
  interarrival_generator gen{sim_,
                             random_pool_source(pool_),
                             collect(),
                             gap,
                             config,
                             util::rng{1}};
  EXPECT_THROW(interarrival_generator(sim_, random_pool_source(pool_),
                                      collect(), gap, config, util::rng{1}),
               std::logic_error);
}

/// The inter-arrival generator as it was before the arrival lane: one
/// pending `schedule_at`/`schedule_after` event per device on the event
/// heap.  The lane must reproduce its emissions exactly.
class heap_interarrival_generator {
 public:
  heap_interarrival_generator(sim::simulation& sim, task_source source,
                              request_sink sink, interarrival_fn gaps,
                              interarrival_config config, util::rng rng)
      : sim_{sim},
        source_{std::move(source)},
        sink_{std::move(sink)},
        gaps_{std::move(gaps)},
        config_{config},
        rng_{rng} {
    const util::time_ms start = sim_.now();
    for (std::size_t d = 0; d < config_.devices; ++d) {
      const auto user = static_cast<user_id>(d);
      const util::time_ms gap = gaps_(rng_);
      const double fraction = rng_.uniform();
      sim_.schedule_at(start + gap * fraction,
                       [this, user] { schedule_next(user); });
    }
    deadline_ = start + config_.active_duration;
  }

 private:
  void schedule_next(user_id user) {
    if (sim_.now() >= deadline_) return;
    offload_request request;
    request.id = ++emitted_;
    request.user = user;
    request.work = source_(rng_);
    request.created_at = sim_.now();
    sink_(request);
    sim_.schedule_after(gaps_(rng_), [this, user] { schedule_next(user); });
  }

  sim::simulation& sim_;
  task_source source_;
  request_sink sink_;
  interarrival_fn gaps_;
  interarrival_config config_;
  util::rng rng_;
  util::time_ms deadline_ = 0.0;
  std::uint64_t emitted_ = 0;
};

/// One line of the merged trace: an emitted request (follow_up 0) or a
/// follow-up event the sink scheduled for it (1: zero delay, 2: 5 ms).
struct trace_line {
  int follow_up = 0;
  request_id id = 0;
  user_id user = 0;
  util::time_ms at = 0.0;
  const tasks::task* algorithm = nullptr;
  std::uint32_t size = 0;
  bool operator==(const trace_line&) const = default;
};

struct equivalence_run {
  std::vector<trace_line> trace;
  std::size_t executed = 0;
};

template <typename Generator>
equivalence_run run_for_equivalence(const tasks::task_pool& pool,
                                    const interarrival_fn& gaps) {
  sim::simulation sim;
  equivalence_run out;
  const request_sink sink = [&](const offload_request& r) {
    out.trace.push_back({0, r.id, r.user, r.created_at, r.work.algorithm,
                         r.work.size});
    sim.schedule_after(0.0, [&out, &sim, id = r.id] {
      out.trace.push_back({1, id, 0, sim.now(), nullptr, 0});
    });
    sim.schedule_after(5.0, [&out, &sim, id = r.id] {
      out.trace.push_back({2, id, 0, sim.now(), nullptr, 0});
    });
  };
  interarrival_config config;
  config.devices = 1'000;
  config.active_duration = util::seconds(20);
  Generator gen{sim, random_pool_source(pool), sink, gaps, config,
                util::rng{2024}};
  sim.run();
  out.executed = sim.executed_events();
  return out;
}

TEST_F(GeneratorTest, ArrivalLaneEmitsWhatPerDeviceEventsEmitted) {
  // Empirical gaps of exactly 0 and 5 ms put arrivals on the same
  // timestamps as the sink's zero- and 5 ms follow-ups, so lane/heap ties
  // are exercised; the exponential run covers continuous gaps.
  std::vector<std::uint16_t> samples(40, 0);
  samples.insert(samples.end(), 40, 5);
  samples.insert(samples.end(), 20, 4'000);
  const auto empirical =
      std::make_shared<const util::empirical_distribution>(samples);
  const std::vector<interarrival_fn> gap_laws = {
      exponential_interarrival(0.5),
      [empirical](util::rng& rng) { return empirical->sample(rng); }};
  for (std::size_t law = 0; law < gap_laws.size(); ++law) {
    const auto lane =
        run_for_equivalence<interarrival_generator>(pool_, gap_laws[law]);
    const auto heap = run_for_equivalence<heap_interarrival_generator>(
        pool_, gap_laws[law]);
    EXPECT_GT(lane.trace.size(), 30'000u) << "law " << law;
    EXPECT_EQ(lane.executed, heap.executed) << "law " << law;
    ASSERT_EQ(lane.trace.size(), heap.trace.size()) << "law " << law;
    for (std::size_t i = 0; i < lane.trace.size(); ++i) {
      ASSERT_EQ(lane.trace[i], heap.trace[i])
          << "law " << law << ", first divergence at line " << i;
    }
  }
}

TEST_F(GeneratorTest, RateDoublingDoublesEveryPhase) {
  rate_doubling_config config;
  config.initial_hz = 1.0;
  config.final_hz = 8.0;
  config.phase_length = util::seconds(10);
  rate_doubling_generator gen{sim_, random_pool_source(pool_), collect(),
                              config, util::rng{4}};
  sim_.run();
  // Phases: 1, 2, 4, 8 Hz for 10 s each -> ~10+20+40+80 = 150 requests.
  EXPECT_NEAR(static_cast<double>(received_.size()), 150.0, 45.0);
  EXPECT_GT(gen.current_rate_hz(), 8.0);  // ended past the final phase
}

TEST_F(GeneratorTest, RateDoublingPhasesRampRequestDensity) {
  rate_doubling_config config;
  config.initial_hz = 2.0;
  config.final_hz = 16.0;
  config.phase_length = util::seconds(20);
  rate_doubling_generator gen{sim_, random_pool_source(pool_), collect(),
                              config, util::rng{5}};
  sim_.run();
  std::size_t first_phase = 0;
  std::size_t last_phase = 0;
  for (const auto& r : received_) {
    if (r.created_at < util::seconds(20)) ++first_phase;
    if (r.created_at >= util::seconds(60)) ++last_phase;
  }
  EXPECT_GT(last_phase, first_phase * 3);
}

TEST_F(GeneratorTest, RateDoublingValidation) {
  rate_doubling_config bad;
  bad.initial_hz = 0.0;
  EXPECT_THROW(rate_doubling_generator(sim_, random_pool_source(pool_),
                                       collect(), bad, util::rng{1}),
               std::invalid_argument);
  rate_doubling_config inverted;
  inverted.initial_hz = 8.0;
  inverted.final_hz = 2.0;
  EXPECT_THROW(rate_doubling_generator(sim_, random_pool_source(pool_),
                                       collect(), inverted, util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, HeavyPoolSourceUsesMaximumSizes) {
  auto source = heavy_pool_source(pool_);
  util::rng rng{6};
  for (int i = 0; i < 50; ++i) {
    const auto request = source(rng);
    EXPECT_EQ(request.size, request.algorithm->max_size);
  }
}

TEST_F(GeneratorTest, StaticSourceAlwaysSameTask) {
  auto source = static_source(pool_.static_minimax_request());
  util::rng rng{6};
  for (int i = 0; i < 10; ++i) {
    const auto request = source(rng);
    EXPECT_EQ(request.algorithm->name, "minimax");
    EXPECT_EQ(request.size, 9u);
  }
}

TEST_F(GeneratorTest, StaticSourceRejectsNull) {
  EXPECT_THROW(static_source(tasks::task_request{}), std::invalid_argument);
}

TEST_F(GeneratorTest, ReplayFiresAtExactTimestamps) {
  std::vector<replay_event> events = {
      {500.0, 3}, {100.0, 1}, {900.0, 2}};  // deliberately unsorted
  replay_generator gen{sim_, random_pool_source(pool_), collect(),
                       events, util::rng{7}};
  sim_.run();
  EXPECT_EQ(gen.emitted(), 3u);
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].created_at, 100.0);
  EXPECT_EQ(received_[0].user, 1u);
  EXPECT_EQ(received_[1].created_at, 500.0);
  EXPECT_EQ(received_[2].user, 2u);
}

TEST_F(GeneratorTest, ReplayBatchesSameTimestampBursts) {
  // Six trace entries at two distinct timestamps must cost two simulator
  // events, not six, while emitting every entry in (time, original-order)
  // order.
  std::vector<replay_event> events = {{200.0, 10}, {100.0, 20}, {200.0, 11},
                                      {100.0, 21}, {200.0, 12}, {100.0, 22}};
  replay_generator gen{sim_, random_pool_source(pool_), collect(), events,
                       util::rng{7}};
  EXPECT_EQ(sim_.pending_events(), 2u);
  sim_.run();
  EXPECT_EQ(gen.emitted(), 6u);
  ASSERT_EQ(received_.size(), 6u);
  const std::vector<user_id> expected_users = {20, 21, 22, 10, 11, 12};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(received_[i].user, expected_users[i]) << "entry " << i;
    EXPECT_EQ(received_[i].created_at, i < 3 ? 100.0 : 200.0);
  }
}

TEST_F(GeneratorTest, ReplayEmptyEventListIsFine) {
  replay_generator gen{sim_, random_pool_source(pool_), collect(), {},
                       util::rng{7}};
  sim_.run();
  EXPECT_EQ(gen.emitted(), 0u);
}

TEST_F(GeneratorTest, ReplayValidation) {
  EXPECT_THROW(replay_generator(sim_, {}, collect(), {}, util::rng{1}),
               std::invalid_argument);
  EXPECT_THROW(replay_generator(sim_, random_pool_source(pool_), {}, {},
                                util::rng{1}),
               std::invalid_argument);
}

TEST_F(GeneratorTest, RequestIdsAreUnique) {
  concurrent_config config;
  config.users = 50;
  config.rounds = 2;
  concurrent_generator gen{sim_, random_pool_source(pool_), collect(), config,
                           util::rng{1}};
  sim_.run();
  std::set<request_id> ids;
  for (const auto& r : received_) ids.insert(r.id);
  EXPECT_EQ(ids.size(), received_.size());
}

}  // namespace
}  // namespace mca::workload
