#include "cloud/backend_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "callback_sink.h"
#include "obs/registry.h"
#include "sim/simulation.h"
#include "util/money.h"
#include "util/sim_time.h"

namespace mca::cloud {
namespace {

instance_type plain_type(const char* name = "test.plain", double vcpus = 1.0) {
  instance_type t;
  t.name = name;
  t.vcpus = vcpus;
  t.memory_gb = 64.0;
  t.cost_per_hour = util::k_money_per_usd;  // $1 per hour
  t.speed_factor = 1.0;
  t.jitter_sigma = 0.0;
  return t;
}

/// A group's accepting instances, collected through for_each_accepting.
/// The fixture pool has no cold starts, so these are exactly the
/// non-draining members.
std::vector<instance*> accepting_in(backend_pool& pool, group_id group) {
  std::vector<instance*> out;
  pool.for_each_accepting(group,
                          [&](instance& server) { out.push_back(&server); });
  return out;
}

class BackendPoolTest : public ::testing::Test {
 protected:
  BackendPoolTest() {
    pool_.set_observability(&obs_);
    pool_.set_completion_sink(&sink_);
  }

  std::uint64_t ps_completed() const {
    return obs_.get(obs::counter::ps_completions);
  }
  std::uint64_t ps_dropped() const { return obs_.get(obs::counter::ps_drops); }

  obs::registry obs_;
  test_support::callback_sink sink_;
  sim::simulation sim_;
  backend_pool pool_{sim_, util::rng{42}};
};

TEST_F(BackendPoolTest, RouteToEmptyGroupFails) {
  EXPECT_EQ(pool_.route(3, 1.0), route_status::no_instances);
}

TEST_F(BackendPoolTest, RoutePrefersLeastLoadedInstance) {
  pool_.launch(1, plain_type());
  pool_.launch(1, plain_type());
  // Four submissions should spread 2/2 across the two instances.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool_.route(1, 100.0), route_status::ok);
  }
  const auto members = accepting_in(pool_, 1);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0]->active_jobs(), 2u);
  EXPECT_EQ(members[1]->active_jobs(), 2u);
}

TEST_F(BackendPoolTest, GroupsAreIsolated) {
  pool_.launch(1, plain_type());
  pool_.launch(2, plain_type());
  ASSERT_EQ(pool_.route(2, 5.0), route_status::ok);
  EXPECT_EQ(accepting_in(pool_, 1)[0]->active_jobs(), 0u);
  EXPECT_EQ(accepting_in(pool_, 2)[0]->active_jobs(), 1u);
}

TEST_F(BackendPoolTest, RetireDrainsIdleImmediately) {
  pool_.launch(1, plain_type());
  pool_.launch(1, plain_type());
  EXPECT_EQ(pool_.retire(1, plain_type(), 1), 1u);
  EXPECT_EQ(pool_.instance_count(1), 1u);
  // The idle retired instance is reaped: billed its one started hour,
  // while the member accrues.
  EXPECT_EQ(pool_.member_count(), 1u);
  EXPECT_EQ(pool_.total_cost(util::hours(5)), 6 * util::k_money_per_usd);
}

TEST_F(BackendPoolTest, RetireBusyInstanceWaitsForDrain) {
  pool_.launch(1, plain_type());
  ASSERT_EQ(pool_.route(1, 100.0), route_status::ok);
  EXPECT_EQ(pool_.retire(1, plain_type(), 1), 1u);
  // Still draining: counted out of accepting capacity but not reaped,
  // so still billed.
  EXPECT_EQ(pool_.instance_count(1), 0u);
  EXPECT_EQ(pool_.member_count(), 1u);
  EXPECT_EQ(pool_.total_cost(util::hours(3)), 3 * util::k_money_per_usd);
  // The job is untagged, so its completion is no engine event: the clock
  // passes it and the sweep's read replays it.
  sim_.run_until(util::minutes(1.0));
  pool_.sweep();
  EXPECT_EQ(pool_.member_count(), 0u);
  EXPECT_EQ(pool_.total_cost(util::hours(3)), util::k_money_per_usd);
}

TEST_F(BackendPoolTest, RetireMoreThanExistingMarksAll) {
  pool_.launch(1, plain_type());
  EXPECT_EQ(pool_.retire(1, plain_type(), 5), 1u);
  EXPECT_EQ(pool_.retire(2, plain_type(), 1), 0u);
}

TEST_F(BackendPoolTest, RetireMatchesTypeName) {
  pool_.launch(1, plain_type("a"));
  pool_.launch(1, plain_type("b"));
  EXPECT_EQ(pool_.retire(1, plain_type("a"), 2), 1u);
  EXPECT_EQ(pool_.instance_count(1, "b"), 1u);
  EXPECT_EQ(pool_.instance_count(1, "a"), 0u);
}

TEST_F(BackendPoolTest, RouteAfterAllDrainingFails) {
  pool_.launch(1, plain_type());
  ASSERT_EQ(pool_.route(1, 50.0), route_status::ok);
  pool_.retire(1, plain_type(), 1);
  EXPECT_EQ(pool_.route(1, 1.0), route_status::no_instances);
}

TEST_F(BackendPoolTest, DroppedWhenInstancesFull) {
  auto tiny = plain_type();
  tiny.memory_gb = 0.1;  // floor admission cap applies
  const auto cap = tiny.max_concurrent();
  pool_.launch(1, tiny);
  std::size_t ok = 0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < cap + 2; ++i) {
    const auto status = pool_.route(1, 10.0);
    if (status == route_status::ok) ++ok;
    if (status == route_status::dropped) ++dropped;
  }
  EXPECT_EQ(ok, cap);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(ps_dropped(), 2u);
}

TEST_F(BackendPoolTest, CompletionCountsAggregate) {
  pool_.launch(1, plain_type());
  int completions = 0;
  const auto count = sink_.tag([&](double, bool) { ++completions; });
  pool_.route(1, 1.0, count);
  pool_.route(1, 1.0, count);
  sim_.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(ps_completed(), 2u);
}

TEST(BackendPool, CompletionSinkReachesInstancesLaunchedBeforeAndAfter) {
  sim::simulation sim;
  backend_pool pool{sim, util::rng{42}};
  pool.launch(1, plain_type());
  test_support::callback_sink sink;
  pool.set_completion_sink(&sink);
  EXPECT_TRUE(pool.has_completion_sink());
  pool.launch(2, plain_type());
  std::vector<group_id> heard;
  const auto from_1 = sink.tag([&](double, bool) { heard.push_back(1); });
  const auto from_2 = sink.tag([&](double, bool) { heard.push_back(2); });
  ASSERT_EQ(pool.route(1, 1.0, from_1), route_status::ok);
  ASSERT_EQ(pool.route(2, 1.0, from_2), route_status::ok);
  sim.run();
  EXPECT_EQ(heard, (std::vector<group_id>{1, 2}));
  // Detached, the pool's jobs complete unheard.
  pool.set_completion_sink(nullptr);
  EXPECT_FALSE(pool.has_completion_sink());
  ASSERT_EQ(pool.route(1, 1.0, from_1), route_status::ok);
  sim.run();
  EXPECT_EQ(heard.size(), 2u);
}

TEST_F(BackendPoolTest, RetiredInstanceStatsSurvive) {
  pool_.launch(1, plain_type());
  pool_.route(1, 1.0);
  sim_.run_until(util::minutes(1.0));  // untagged: retire's read replays it
  pool_.retire(1, plain_type(), 1);
  pool_.sweep();
  EXPECT_EQ(ps_completed(), 1u);
}

/// The bill after one `price`-per-hour instance launched at `launch` is
/// retired, idle, at `retire`, read at `read`.
util::money bill_of_one(util::money price, util::time_ms launch,
                        util::time_ms retire, util::time_ms read) {
  sim::simulation sim;
  backend_pool pool{sim, util::rng{42}};
  sim.run_until(launch);
  instance_type type = plain_type();
  type.cost_per_hour = price;
  pool.launch(1, type);
  sim.run_until(retire);
  EXPECT_EQ(pool.retire(1, type, 1), 1u);
  EXPECT_EQ(pool.member_count(), 0u);
  return pool.total_cost(read);
}

TEST(BackendPoolBilling, StartedHourIsBilledInFull) {
  EXPECT_EQ(bill_of_one(100, 0.0, util::minutes(10), util::hours(5)), 100);
}

TEST(BackendPoolBilling, CeilOfPartialHours) {
  EXPECT_EQ(bill_of_one(100, 0.0, util::hours(2.5), util::hours(5)), 300);
}

TEST(BackendPoolBilling, ExactHoursNotOverbilled) {
  EXPECT_EQ(bill_of_one(100, util::hours(1), util::hours(3), util::hours(5)),
            200);
}

TEST_F(BackendPoolTest, BillingAccruesWhileRunning) {
  sim_.run_until(util::hours(1.0));
  pool_.launch(1, plain_type());
  EXPECT_EQ(pool_.total_cost(util::hours(1.5)), util::k_money_per_usd);
  sim_.run_until(util::hours(3.2));
  EXPECT_EQ(pool_.total_cost(sim_.now()), 3 * util::k_money_per_usd);
}

TEST_F(BackendPoolTest, MixedTypesSummed) {
  instance_type cheap = plain_type("cheap");
  cheap.cost_per_hour = 5'000;
  instance_type pricey = plain_type("pricey");
  pricey.cost_per_hour = 20'000;
  pool_.launch(1, cheap);
  pool_.launch(2, pricey);
  sim_.run_until(util::hours(1.0));
  pool_.retire(1, cheap, 1);
  sim_.run_until(util::hours(2.0));
  pool_.retire(2, pricey, 1);
  EXPECT_EQ(pool_.total_cost(util::hours(3)), 5'000 + 2 * 20'000);
}

TEST(BackendPoolBilling, OrderOfLaunchesAndReapsCannotMoveTheBill) {
  // Summed as dollar doubles, the order moves these bills: an hour of
  // $0.0063, $0.025 and $1.811 read 1.8422999999999998 launched in this
  // order and 1.8423 in reverse, and three hours 5.5268999999999995
  // reaped in this order against 5.5269000000000004.
  const std::vector<std::string> names = {"t2.nano", "t2.small",
                                          "c4.8xlarge"};
  const auto bills = [&](bool reversed) {
    std::vector<std::string> order = names;
    if (reversed) std::reverse(order.begin(), order.end());
    sim::simulation sim;
    backend_pool pool{sim, util::rng{42}};
    for (const std::string& name : order) pool.launch(1, type_by_name(name));
    const util::money running = pool.total_cost(util::hours(1));
    sim.run_until(util::hours(2.5));
    for (const std::string& name : order) {
      EXPECT_EQ(pool.retire(1, type_by_name(name), 1), 1u);
    }
    return std::pair{running, pool.total_cost(util::hours(3))};
  };
  const auto forward = bills(false);
  EXPECT_EQ(forward, bills(true));
  EXPECT_EQ(util::to_usd(forward.first), 1.8423);
  EXPECT_EQ(util::to_usd(forward.second), 5.5269);
}

TEST_F(BackendPoolTest, MutableAccessSkipsDraining) {
  pool_.launch(1, plain_type());
  pool_.launch(1, plain_type());
  pool_.route(1, 100.0);
  pool_.route(1, 100.0);
  pool_.retire(1, plain_type(), 1);
  EXPECT_EQ(accepting_in(pool_, 1).size(), 1u);
}

TEST_F(BackendPoolTest, RetireWhileRoutingChurn) {
  // Interleave routing with partial drains over several simulated rounds:
  // drained instances must never accept another request, live ones must
  // absorb the full load, and every instance must be billed once, up to
  // its reap, no matter how often the reaper runs.
  const auto type = plain_type();
  for (int i = 0; i < 4; ++i) pool_.launch(1, type);

  std::size_t completions = 0;
  std::size_t failures = 0;
  std::size_t routed = 0;
  std::size_t drained_total = 0;
  const auto terminal = sink_.tag([&](double, bool ok) {
    if (ok) {
      ++completions;
    } else {
      ++failures;
    }
  });
  for (int round = 0; round < 6; ++round) {
    // Load every accepting instance, then mark one busy member mid-work.
    for (int r = 0; r < 8; ++r) {
      if (pool_.route(1, 50.0, terminal) == route_status::ok) {
        ++routed;
      }
    }
    // Pointers stay inside the round: the reaper frees drained instances.
    std::vector<instance*> drained;
    if (round < 2) {
      auto accepting = accepting_in(pool_, 1);
      ASSERT_EQ(pool_.retire(1, type, 1), 1u);
      for (instance* server : accepting) {
        if (server->draining()) drained.push_back(server);
      }
      // Everyone was busy, so the drain marks a loaded server (no reap).
      ASSERT_EQ(drained.size(), 1u);
      ++drained_total;
    }
    // Mid-drain routing: new work lands only on accepting instances.
    std::vector<std::size_t> jobs_before;
    for (instance* server : drained) {
      jobs_before.push_back(server->active_jobs());
    }
    for (int r = 0; r < 4; ++r) {
      if (pool_.route(1, 25.0, terminal) == route_status::ok) {
        ++routed;
      }
    }
    for (std::size_t d = 0; d < drained.size(); ++d) {
      EXPECT_LE(drained[d]->active_jobs(), jobs_before[d])
          << "drained instance accepted work in round " << round;
    }
    // The router's accepting view must exclude every drained instance.
    for (instance* server : accepting_in(pool_, 1)) {
      EXPECT_EQ(std::find(drained.begin(), drained.end(), server),
                drained.end())
          << "drained instance still visible to routing in round " << round;
    }
    // Direct submission to a draining instance must be refused outright.
    for (instance* server : drained) {
      EXPECT_FALSE(server->submit(1.0));
    }
    // Let some work finish, reap repeatedly (idempotent: a reaped
    // instance leaves the pool, so no later sweep bills it again).
    sim_.run_until(sim_.now() + util::minutes(2.0));
    ASSERT_NO_THROW(pool_.sweep());
    ASSERT_NO_THROW(pool_.sweep());
  }
  EXPECT_EQ(drained_total, 2u);
  EXPECT_EQ(pool_.instance_count(1), 2u);

  // Drain the simulation: all in-flight work completes, the two retired
  // instances are reaped, and exactly the two live members stay billed.
  sim_.run();
  ASSERT_NO_THROW(pool_.sweep());
  ASSERT_NO_THROW(pool_.sweep());
  EXPECT_EQ(completions, routed);
  EXPECT_EQ(ps_completed(), routed);
  EXPECT_EQ(pool_.member_count(), 2u);
  // The only refusals are this test's own direct probes of the draining
  // instances; the router itself never hit a drop.
  EXPECT_EQ(ps_dropped(), drained_total);
  // Billing keeps charging the live instances only: each started hour
  // from here adds the two members' $1, and a sweep on an already-reaped
  // pool moves nothing.  All four were billed an hour at least.
  const util::money cost = pool_.total_cost(sim_.now());
  EXPECT_GE(cost, 4 * util::k_money_per_usd);
  EXPECT_EQ(pool_.total_cost(sim_.now() + util::hours(1)),
            cost + 2 * util::k_money_per_usd);
  pool_.sweep();
  EXPECT_EQ(pool_.total_cost(sim_.now()), cost);

  // Preemption phase: spot-kill both survivors while loaded.  Every job
  // in flight on a victim must be failure-notified exactly once — the
  // terminal-accounting invariant the resilient offload path builds on:
  // routed == completed + failure-notified, nothing silently lost.
  EXPECT_EQ(completions, routed);  // everything so far finished ok
  EXPECT_EQ(failures, 0u);
  std::size_t preempt_routed = 0;
  for (int r = 0; r < 6; ++r) {
    if (pool_.route(1, 40.0, terminal) == route_status::ok) {
      ++preempt_routed;
    }
  }
  ASSERT_EQ(preempt_routed, 6u);
  const auto strike = pool_.preempt_in(1, 5);
  EXPECT_TRUE(strike.applied);
  EXPECT_GT(strike.killed, 0u);
  EXPECT_EQ(pool_.instance_count(1), 1u);
  const auto second = pool_.preempt_in(1, 0);
  EXPECT_TRUE(second.applied);
  EXPECT_GT(second.killed, 0u);
  EXPECT_EQ(pool_.instance_count(1), 0u);
  // A preempted group with no survivors refuses routing and strikes.
  EXPECT_EQ(pool_.route(1, 1.0), route_status::no_instances);
  EXPECT_FALSE(pool_.preempt_in(1, 0).applied);
  sim_.run();
  ASSERT_NO_THROW(pool_.sweep());
  EXPECT_EQ(strike.killed + second.killed, failures);
  EXPECT_EQ(completions + failures, routed + preempt_routed);
  EXPECT_EQ(ps_completed(), completions);
  // Both victims were reaped on the kill: nothing accrues any more.
  EXPECT_EQ(pool_.member_count(), 0u);
  EXPECT_EQ(pool_.total_cost(sim_.now() + util::hours(1)),
            pool_.total_cost(sim_.now()));
}

}  // namespace
}  // namespace mca::cloud
