// Memory gates for the sharded fleet.
//
// The counting allocator (counting_allocator.h) tracks the bytes live and
// their high-water mark, so these tests pin the fleet's state per
// simulated user, and the one study a fleet run holds, exactly: no wall
// clock and no RSS read.  The pool has one worker, so allocations never
// overlap in time.
#include <gtest/gtest.h>

#include <cstddef>

#include "counting_allocator.h"
#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "tasks/task.h"

namespace mca {
namespace {

using counting::allocation_window;

/// mca_bench's fleet population at its --smoke size: 40,000 users over 4
/// shards, sparse Poisson traffic against four acceleration groups, no
/// background load, four 15-minute slots over one hour.
exp::scenario_spec smoke_fleet_spec() {
  exp::scenario_spec spec;
  spec.name = "fleet_scale";
  spec.base_seed = 500'000;
  spec.user_count = 40'000;
  spec.duration = util::hours(1.0);
  spec.slot_length = spec.duration / 4.0;
  spec.tasks = exp::task_mix::static_minimax;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.0005;
  spec.background_requests_per_burst = 0;
  spec.promotion_probability = 1.0 / 50.0;
  spec.groups = {
      {1, "t2.medium", 3, 280.0},    {1, "t2.large", 3, 600.0},
      {1, "m4.4xlarge", 0, 2400.0},  {2, "t2.large", 1, 500.0},
      {2, "m4.4xlarge", 1, 1600.0},  {2, "m4.10xlarge", 0, 4000.0},
      {3, "m4.4xlarge", 1, 1200.0},  {3, "m4.10xlarge", 0, 2400.0},
      {3, "c4.8xlarge", 0, 2000.0},  {4, "m4.10xlarge", 1, 2000.0},
      {4, "c4.8xlarge", 0, 1800.0},
  };
  spec.max_total_instances = 4096;
  spec.fleet_max_total_instances = 4096;
  spec.fleet_shards = 4;
  return spec;
}

/// The same fleet under mca_bench's fleet_faults program: spot hazards on
/// groups 1, 3 and 4, an outage of group 2 inside slot 1, cold starts,
/// and the timeout / retry / local-fallback path.
exp::scenario_spec smoke_faulted_fleet_spec() {
  exp::scenario_spec spec = smoke_fleet_spec();
  spec.name = "fleet_scale_faults";
  spec.faults.enabled = true;
  spec.faults.preempt_hazard_per_hour = {0.0, 6.0, 0.0, 6.0, 6.0};
  spec.faults.outages = {{2, spec.slot_length * 1.05, spec.slot_length * 1.9}};
  spec.faults.cold_start_mean_ms = 2'000.0;
  spec.faults.max_retries = 2;
  spec.faults.request_timeout_ms = 30'000.0;
  spec.faults.retry_backoff_base_ms = 100.0;
  spec.faults.retry_backoff_cap_ms = 1'000.0;
  spec.faults.local_fallback = true;
  return spec;
}

/// Peak live bytes of one run_fleet call on a one-worker pool, per user.
double peak_bytes_per_user(const exp::scenario_spec& spec) {
  tasks::task_pool tasks;
  exp::thread_pool pool{1};
  std::size_t peak = 0;
  std::size_t requests = 0;
  {
    const allocation_window window;
    const fleet::fleet_result result =
        fleet::run_fleet(spec, fleet::fleet_options{}, tasks, pool);
    peak = window.peak();
    requests = result.aggregate.requests;
  }
  EXPECT_GT(requests, 50'000u);
  return static_cast<double>(peak) / static_cast<double>(spec.user_count);
}

// The fault-free bound is the layout's sum, per user of a 10,000-user
// shard:
//  * per-user arrays: the moderator's one-byte group (1 B), the arrival
//    lane reserved at one 16-byte entry per device (16 B) and the slot
//    evidence, one bit per user in each of the 5 groups (0.625 B): 17.6 B;
//  * the predictor history: each of the 4 slots holds a user at most once
//    per group it used, 4 B, and a user sends 0.45 requests a slot on
//    average (0.0005 Hz over 15 minutes): about 7.2 B at most;
//  * the shard's SLO histograms, 769 bins each over 5 groups: the
//    timeline's 5 windows at 4 B a bin (76.9 kB), the registry's, the
//    timeline's baseline and its scratch at 8 B a bin (67.7 kB): 14.5 B;
//  * state sized by the traffic, not the population: per request in
//    flight an 88-byte SDN slot and a 16-byte PS job, pending events,
//    instances, digests and the merge.  The previous layout allotted it
//    32.7 B, ~3 requests in flight per 10 users; a PS job was 48 B then,
//    so the same allotment is now 32.7 - 0.3 * 32 = 23.1 B.
// That is 62.4 B per user.  The previous layout's 80 B also held a
// battery level per user (8 B), and it measured 65.3 B.  The forecast no
// longer runs an edit distance either, whose scratch (two 8-byte Fenwick
// arrays over the two compared group lists) sat in the traffic allotment.
// A counting-allocator attribution of this run's peak (the end-of-run
// merge) puts the in-flight state below 1 B per user, so the allotment
// is not tight.
constexpr double kFleetBytesPerUser = 62.4;

TEST(FleetMemory, PeakLiveBytesPerUserStayUnderTheLayoutBound) {
  const double per_user = peak_bytes_per_user(smoke_fleet_spec());
  EXPECT_LE(per_user, kFleetBytesPerUser);
}

TEST(FleetMemory, FaultedFleetStaysUnderItsLayoutBound) {
  // The fault program adds no per-user state.  What it adds rides in the
  // traffic allotment above: a timeout timer per dispatched attempt is a
  // pending event of an in-flight request, and a retried or locally run
  // request keeps its one in-flight slot.  Its own arrays are the strike
  // schedule, ~6 strikes an hour on each of 3 groups at 32 B a strike,
  // and one outage window: under 0.1 B per user.  The previous layout
  // measured 67.3 B here.
  const double per_user = peak_bytes_per_user(smoke_faulted_fleet_spec());
  EXPECT_LE(per_user, kFleetBytesPerUser + 0.1);
}

TEST(FleetMemory, StudyGapFleetHoldsOneStudy) {
  tasks::task_pool tasks;
  exp::scenario_spec spec;
  for (const exp::scenario_spec& builtin : exp::builtin_scenarios()) {
    if (builtin.name == "fleet") spec = builtin;
  }
  ASSERT_EQ(spec.gaps, exp::gap_model::study_sessions);
  // The study's own peak, synthesis included.
  std::size_t study_bytes = 0;
  {
    const allocation_window window;
    const exp::shared_study study = exp::make_study(spec);
    study_bytes = window.peak();
  }
  exp::thread_pool pool{1};
  fleet::fleet_options options;
  options.shards = 4;
  std::size_t peak = 0;
  {
    const allocation_window window;
    const fleet::fleet_result result =
        fleet::run_fleet(spec, options, tasks, pool);
    peak = window.peak();
  }
  // One study plus a 400-user fleet.  A study per shard would hold four
  // at once while the shards are built; two already fail.
  EXPECT_LT(peak, 2 * study_bytes)
      << "fleet peak " << peak << " bytes, one study " << study_bytes;
}

}  // namespace
}  // namespace mca
