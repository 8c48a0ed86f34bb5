// Stress coverage for the arena/heap event engine: 100k interleaved
// schedule/cancel operations with determinism and pending-count accuracy
// checks, plus the nasty re-entrant patterns (self-cancel, cancel from a
// callback, slot reuse through stale handles), and a differential run of
// the arrival lane against plain events.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace mca::sim {
namespace {

/// Runs the interleaved schedule/cancel stress and returns the execution
/// order fingerprint (sequence of payload ids).
std::vector<std::uint32_t> run_stress(std::uint64_t seed) {
  simulation sim;
  util::rng rng{seed};
  std::vector<std::uint32_t> order;
  std::unordered_map<std::uint32_t, event_handle> pending;
  std::size_t expected_pending = 0;
  std::uint32_t next_payload = 0;

  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    const bool cancel_op = !pending.empty() && rng.uniform(0.0, 1.0) < 0.4;
    if (cancel_op) {
      // Cancel a pseudo-random pending event.
      const auto it = pending.begin();
      sim.cancel(it->second);
      sim.cancel(it->second);  // double cancel must be a no-op
      pending.erase(it);
      --expected_pending;
    } else {
      const std::uint32_t payload = next_payload++;
      const double at = rng.uniform(0.0, 1'000'000.0);
      const event_handle h = sim.schedule_at(at, [payload, &order, &pending] {
        order.push_back(payload);
        pending.erase(payload);
      });
      pending.emplace(payload, h);
      ++expected_pending;
    }
    if (sim.pending_events() != expected_pending) {
      ADD_FAILURE() << "pending count drifted at op " << op;
      break;
    }
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(order.size(), expected_pending);
  EXPECT_EQ(sim.executed_events(), expected_pending);
  return order;
}

TEST(EventEngineStress, InterleavedScheduleCancelIsDeterministic) {
  const auto a = run_stress(123);
  const auto b = run_stress(123);
  EXPECT_EQ(a, b);  // identical seeds, identical execution order
  const auto c = run_stress(456);
  EXPECT_NE(a, c);  // different seed actually changes the workload
}

/// Random schedule/cancel/reschedule/arrival/step operations; arrivals go
/// through the arrival lane when `lane` is set and are plain `schedule_at`
/// events otherwise.  Times are whole milliseconds near the clock (some in
/// the past), so ties within and across the two queues are common.
/// Returns the execution order of operation ids.
std::vector<std::uint32_t> run_lane_differential(std::uint64_t seed,
                                                 bool lane) {
  constexpr std::size_t kNotCancellable = static_cast<std::size_t>(-1);
  simulation sim;
  util::rng rng{seed};
  std::vector<std::uint32_t> order;
  std::vector<event_handle> handles;       // by id (arrivals: unused)
  std::vector<std::size_t> where;          // id -> index in `cancellable`
  std::vector<std::uint32_t> cancellable;  // ids of pending plain events
  const auto forget = [&](std::uint32_t id) {
    const std::size_t i = where[id];
    where[cancellable.back()] = i;
    cancellable[i] = cancellable.back();
    cancellable.pop_back();
    where[id] = kNotCancellable;
  };
  const auto pick = [&] {
    const auto i = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(cancellable.size()));
    return cancellable[std::min(i, cancellable.size() - 1)];
  };
  const auto sample_at = [&] {
    return sim.now() + std::floor(rng.uniform(-20.0, 2'000.0));
  };
  if (lane) {
    sim.set_arrival_handler([&](std::uint32_t id) { order.push_back(id); });
  }

  constexpr int kOps = 100'000;
  std::size_t expected_pending = 0;
  for (int op = 0; op < kOps; ++op) {
    const double r = rng.uniform();
    if (r < 0.1) {
      if (sim.step()) --expected_pending;
    } else if (r < 0.25 && !cancellable.empty()) {
      const std::uint32_t id = pick();
      sim.cancel(handles[id]);
      forget(id);
      --expected_pending;
    } else if (r < 0.4 && !cancellable.empty()) {
      EXPECT_TRUE(sim.reschedule(handles[pick()], sample_at()));
    } else {
      const auto id = static_cast<std::uint32_t>(handles.size());
      const util::time_ms at = sample_at();
      if (r < 0.7) {
        if (lane) {
          sim.schedule_arrival(at, id);
        } else {
          sim.schedule_at(at, [&order, id] { order.push_back(id); });
        }
        handles.push_back({});
        where.push_back(kNotCancellable);
      } else {
        handles.push_back(sim.schedule_at(at, [&order, &forget, id] {
          order.push_back(id);
          forget(id);
        }));
        where.push_back(cancellable.size());
        cancellable.push_back(id);
      }
      ++expected_pending;
    }
    if (sim.pending_events() != expected_pending) {
      ADD_FAILURE() << "pending count drifted at op " << op;
      break;
    }
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), order.size());
  return order;
}

TEST(EventEngineStress, ArrivalLaneMatchesPlainEvents) {
  for (const std::uint64_t seed : {7u, 8u}) {
    const auto with_lane = run_lane_differential(seed, true);
    const auto without_lane = run_lane_differential(seed, false);
    EXPECT_GT(with_lane.size(), 40'000u);
    EXPECT_EQ(with_lane, without_lane) << "seed " << seed;
  }
}

TEST(EventEngineStress, PendingCountSurvivesSlotReuse) {
  simulation sim;
  // Churn the same few arena slots through thousands of generations.
  for (int round = 0; round < 5'000; ++round) {
    const auto a = sim.schedule_at(1.0, [] {});
    const auto b = sim.schedule_at(2.0, [] {});
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.cancel(a);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.cancel(b);
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.cancel(a);  // stale handles from this round: all no-ops
    sim.cancel(b);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(EventEngineStress, StaleHandleCannotCancelSlotSuccessor) {
  simulation sim;
  const auto old = sim.schedule_at(10.0, [] {});
  sim.cancel(old);
  // The replacement likely reuses the same arena slot; the stale handle
  // must not be able to touch it.
  bool fired = false;
  sim.schedule_at(10.0, [&] { fired = true; });
  sim.cancel(old);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventEngineStress, CancelFromCallbackAffectsLaterEvent) {
  simulation sim;
  bool victim_fired = false;
  const auto victim = sim.schedule_at(20.0, [&] { victim_fired = true; });
  sim.schedule_at(10.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(EventEngineStress, SelfCancelFromCallbackIsNoop) {
  simulation sim;
  event_handle self{};
  int fired = 0;
  self = sim.schedule_at(5.0, [&] {
    ++fired;
    sim.cancel(self);  // already executing: must be harmless
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventEngineStress, MassCancellationLeavesCleanQueue) {
  simulation sim;
  std::vector<event_handle> handles;
  handles.reserve(100'000);
  for (int i = 0; i < 100'000; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i % 997), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100'000u);
  // Cancel every other event, back to front.
  for (int i = 99'999; i >= 0; i -= 2) {
    sim.cancel(handles[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending_events(), 50'000u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 50'000u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace mca::sim
