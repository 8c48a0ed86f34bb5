#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mca::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, EventsRunInTimeOrder) {
  simulation sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30.0);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulation, SameTimeIsFifo) {
  simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(100.0, [&] {
    sim.schedule_after(50.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150.0);
}

TEST(Simulation, NegativeDelayThrows) {
  simulation sim;
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulation, EmptyCallbackThrows) {
  simulation sim;
  EXPECT_THROW(sim.schedule_at(1.0, {}), std::invalid_argument);
}

TEST(Simulation, PastEventFiresAtCurrentTime) {
  simulation sim;
  sim.schedule_at(100.0, [] {});
  sim.run();
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired_at, 100.0);  // clamped to now
}

TEST(Simulation, CancelPreventsExecution) {
  simulation sim;
  bool fired = false;
  const auto handle = sim.schedule_at(10.0, [&] { fired = true; });
  sim.cancel(handle);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulation, CancelUnknownHandleIsNoop) {
  simulation sim;
  sim.cancel(event_handle{12345});
  sim.cancel(event_handle{});  // invalid handle
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, PendingEventsExcludesCancelled) {
  simulation sim;
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  simulation sim;
  int fired = 0;
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.schedule_at(20.0, [&] { ++fired; });
  sim.schedule_at(30.0, [&] { ++fired; });
  sim.run_until(25.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 25.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  simulation sim;
  sim.run_until(500.0);
  EXPECT_EQ(sim.now(), 500.0);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_after(10.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40.0);
}

// ---- arrival lane ---------------------------------------------------------

TEST(Simulation, ReservedSequenceKeepsItsFifoPlace) {
  // An event scheduled under a sequence reserved before another event was
  // scheduled runs first at an equal time, as if scheduled at the
  // reservation.
  simulation sim;
  std::vector<int> order;
  const std::uint64_t reserved = sim.reserve_sequence();
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.schedule_reserved(10.0, reserved, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_THROW(sim.schedule_reserved(20.0, reserved + 5, [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_reserved(20.0, 0, [] {}), std::invalid_argument);
}

TEST(Simulation, RunningSequenceNamesTheRunningEvent) {
  // Inside a handler the running event's sequence orders it against a
  // reserved one; between steps it reads above every sequence.
  simulation sim;
  EXPECT_EQ(sim.running_sequence(), simulation::kOutsideEvents);
  const std::uint64_t before = sim.reserve_sequence();
  std::uint64_t seen = 0;
  sim.schedule_at(5.0, [&] { seen = sim.running_sequence(); });
  const std::uint64_t after = sim.reserve_sequence();
  sim.run();
  EXPECT_GT(seen, before);
  EXPECT_LT(seen, after);
  EXPECT_EQ(sim.running_sequence(), simulation::kOutsideEvents);
}

TEST(ArrivalLane, TiesWithEventsFireInSchedulingOrder) {
  // Arrival first, then an event at the same timestamp ...
  simulation sim;
  std::vector<int> order;
  sim.set_arrival_handler([&](std::uint32_t payload) {
    order.push_back(static_cast<int>(payload));
  });
  sim.schedule_arrival(10.0, 1);
  sim.schedule_at(10.0, [&] { order.push_back(-1); });
  sim.schedule_arrival(10.0, 2);
  // ... and the other way round.
  sim.schedule_at(20.0, [&] { order.push_back(-2); });
  sim.schedule_arrival(20.0, 3);
  sim.schedule_at(20.0, [&] { order.push_back(-3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2, -2, 3, -3}));
}

TEST(ArrivalLane, EarlierTopRunsFirstAcrossQueues) {
  simulation sim;
  std::vector<int> order;
  sim.set_arrival_handler([&](std::uint32_t payload) {
    order.push_back(static_cast<int>(payload));
  });
  sim.schedule_at(30.0, [&] { order.push_back(-30); });
  sim.schedule_arrival(20.0, 20);
  sim.schedule_at(10.0, [&] { order.push_back(-10); });
  sim.schedule_arrival(40.0, 40);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-10, 20, -30, 40}));
  EXPECT_EQ(sim.now(), 40.0);
}

TEST(ArrivalLane, RunUntilStopsAtDeadlineWithOnlyArrivals) {
  simulation sim;
  std::vector<double> fired_at;
  sim.set_arrival_handler(
      [&](std::uint32_t) { fired_at.push_back(sim.now()); });
  sim.schedule_arrival(10.0, 0);
  sim.schedule_arrival(20.0, 1);
  sim.schedule_arrival(30.0, 2);
  sim.run_until(25.0);
  EXPECT_EQ(fired_at, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(sim.now(), 25.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(30.0);  // an arrival exactly at the deadline runs
  EXPECT_EQ(fired_at.size(), 3u);
  // Both queues empty: the clock still advances to the deadline.
  sim.run_until(500.0);
  EXPECT_EQ(sim.now(), 500.0);
}

TEST(ArrivalLane, PastArrivalFiresAtCurrentTime) {
  simulation sim;
  double fired_at = -1.0;
  sim.set_arrival_handler([&](std::uint32_t) { fired_at = sim.now(); });
  sim.run_until(100.0);
  sim.schedule_arrival(5.0, 0);  // in the past
  sim.run();
  EXPECT_EQ(fired_at, 100.0);  // clamped to now
}

TEST(ArrivalLane, CountsPendingAndExecutedArrivals) {
  simulation sim;
  sim.set_arrival_handler([](std::uint32_t) {});
  sim.schedule_arrival(1.0, 0);
  sim.schedule_arrival(2.0, 1);
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.executed_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_FALSE(sim.step());
}

TEST(ArrivalLane, HandlerReceivesPayloadAndMayRescheduleIt) {
  simulation sim;
  std::vector<std::uint32_t> seen;
  sim.set_arrival_handler([&](std::uint32_t payload) {
    seen.push_back(payload);
    if (seen.size() < 4) sim.schedule_arrival(sim.now() + 1.0, payload + 1);
  });
  sim.schedule_arrival(0.0, simulation::kMaxArrivalPayload - 3);
  sim.run();
  const std::uint32_t top = simulation::kMaxArrivalPayload;
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{top - 3, top - 2, top - 1, top}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(ArrivalLane, ScheduleWithoutHandlerThrows) {
  simulation sim;
  EXPECT_THROW(sim.schedule_arrival(1.0, 0), std::logic_error);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ArrivalLane, HandlerIsSetOnce) {
  simulation sim;
  EXPECT_THROW(sim.set_arrival_handler({}), std::invalid_argument);
  sim.set_arrival_handler([](std::uint32_t) {});
  EXPECT_THROW(sim.set_arrival_handler([](std::uint32_t) {}), std::logic_error);
}

TEST(ArrivalLane, PayloadAbove24BitsThrows) {
  simulation sim;
  sim.set_arrival_handler([](std::uint32_t) {});
  EXPECT_THROW(sim.schedule_arrival(1.0, simulation::kMaxArrivalPayload + 1),
               std::length_error);
  EXPECT_THROW(sim.schedule_arrival(1.0, 0xffffffffu), std::length_error);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_NO_THROW(sim.schedule_arrival(1.0, simulation::kMaxArrivalPayload));
}

TEST(PeriodicProcess, TicksAtFixedPeriod) {
  simulation sim;
  std::vector<double> tick_times;
  periodic_process p{sim, 10.0, 5.0, [&](std::uint64_t) {
                       tick_times.push_back(sim.now());
                       return tick_times.size() < 4;
                     }};
  sim.run();
  EXPECT_EQ(tick_times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(PeriodicProcess, TickIndexIncrements) {
  simulation sim;
  std::vector<std::uint64_t> indices;
  periodic_process p{sim, 0.0, 1.0, [&](std::uint64_t tick) {
                       indices.push_back(tick);
                       return tick < 2;
                     }};
  sim.run();
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(PeriodicProcess, StopCancelsFutureTicks) {
  simulation sim;
  int ticks = 0;
  periodic_process p{sim, 0.0, 10.0, [&](std::uint64_t) {
                       ++ticks;
                       return true;
                     }};
  sim.run_until(35.0);
  p.stop();
  sim.run();
  EXPECT_EQ(ticks, 4);  // t = 0, 10, 20, 30
}

TEST(PeriodicProcess, ValidatesArguments) {
  simulation sim;
  EXPECT_THROW(periodic_process(sim, 0.0, 0.0, [](std::uint64_t) {
                 return false;
               }),
               std::invalid_argument);
  EXPECT_THROW(periodic_process(sim, 0.0, 1.0, {}), std::invalid_argument);
}

TEST(PeriodicProcess, DestructorStopsTicking) {
  simulation sim;
  int ticks = 0;
  {
    periodic_process p{sim, 0.0, 1.0, [&](std::uint64_t) {
                         ++ticks;
                         return true;
                       }};
    sim.run_until(2.5);
  }
  sim.run_until(100.0);
  EXPECT_EQ(ticks, 3);
}

}  // namespace
}  // namespace mca::sim
