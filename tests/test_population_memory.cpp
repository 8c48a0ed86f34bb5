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

TEST(FleetMemory, PeakLiveBytesPerUserStayUnderTheLayoutBound) {
  tasks::task_pool tasks;
  const exp::scenario_spec spec = smoke_fleet_spec();
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
  ASSERT_GT(requests, 50'000u);
  // The bound is the layout's sum, per user of a 10,000-user shard:
  //  * per-user arrays: the battery (8 B), the moderator's one-byte
  //    group (1 B), the arrival lane reserved at one 16-byte entry per
  //    device (16 B) and the slot evidence, one bit per user in each of
  //    the 5 groups (0.625 B): 25.6 B;
  //  * the predictor history: each of the 4 slots holds a user at most
  //    once per group it used, 4 B, and a user sends 0.45 requests a
  //    slot on average (0.0005 Hz over 15 minutes): about 7.2 B at most;
  //  * the shard's SLO histograms, 769 bins each over 5 groups: the
  //    timeline's 5 windows at 4 B a bin (76.9 kB), the registry's, the
  //    timeline's baseline and its scratch at 8 B a bin (67.7 kB):
  //    14.5 B;
  //  * state sized by the traffic, not the population: the SDN's
  //    in-flight slab at 96 B a request, pending events, instances,
  //    digests and the merge.  It gets the remaining 32.7 B, ~3 in-flight
  //    slots per 10 users.
  // That is 80 B per user.  The previous layout measured 96.6 B: the
  // arrival lane grown by doubling alone peaks at 39 B per user while it
  // copies, a per-user request counter adds 4 B, 4-byte moderator groups
  // 3 B, and 8-byte window bins 7.7 B.
  const double per_user =
      static_cast<double>(peak) / static_cast<double>(spec.user_count);
  EXPECT_LE(per_user, 80.0) << "peak " << peak << " live bytes";
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
