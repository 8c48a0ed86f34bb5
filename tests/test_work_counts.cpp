// Exact work counts: the engine events a run executes and the PS
// back-end's wake counts, pinned for two fixed runs.
//
// Wall-clock verdicts on a shared host often cannot tell a 20% change
// from noise; these counts are exact, so a change that moves work (an
// extra event per request, a wake lost or doubled) fails here even when
// every fingerprint holds.  A change that moves one on purpose lists it
// old -> new, like a fingerprint.
//
// The PS counts are pinned in total and per timeline window: a wake that
// fires, or is replayed, on the wrong side of a slot boundary moves a
// window's count while the total stays put.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "exp/thread_pool.h"
#include "fleet/coordinator.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard.h"
#include "obs/exemplar.h"
#include "obs/fnv.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "tasks/task.h"

namespace mca {
namespace {

/// The PS wake counts, in this order.
constexpr std::array<obs::counter, 4> kPsCounters = {
    obs::counter::ps_completions, obs::counter::ps_completion_events,
    obs::counter::ps_spurious_wakes, obs::counter::ps_vclock_resets};
using ps_counts = std::array<std::uint64_t, kPsCounters.size()>;

struct work_counts {
  std::uint64_t events = 0;
  ps_counts total{};
  std::vector<ps_counts> windows;  ///< one per timeline window, in order
};

ps_counts ps_of(const obs::registry& r) {
  ps_counts out{};
  for (std::size_t i = 0; i < kPsCounters.size(); ++i) {
    out[i] = r.get(kPsCounters[i]);
  }
  return out;
}

std::vector<ps_counts> ps_windows(const obs::timeline& t) {
  std::vector<ps_counts> out(t.size());
  for (std::size_t w = 0; w < t.size(); ++w) {
    for (std::size_t i = 0; i < kPsCounters.size(); ++i) {
      out[w][i] = t.window(w).delta(kPsCounters[i]);
    }
  }
  return out;
}

/// GoldenEquivalence's study-gap spec: the builtin fig9_closed_loop
/// scenario (study-session gaps, 50-job background bursts every 2 s)
/// trimmed to 40 minutes of 10-minute slots.
exp::scenario_spec study_gap_spec() {
  for (exp::scenario_spec spec : exp::builtin_scenarios()) {
    if (spec.name != "fig9_closed_loop") continue;
    spec.duration = util::minutes(40.0);
    spec.slot_length = util::minutes(10.0);
    return spec;
  }
  ADD_FAILURE() << "fig9_closed_loop scenario missing";
  return {};
}

/// mca_bench's fleet at --smoke size (test_population_memory's spec):
/// 40,000 users over 4 shards, every PS job a tagged request.
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

/// The same fleet under mca_bench's fleet_faults program (fleet_scale
/// --smoke --faults runs it too).
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

/// FNV-1a over every field of every exemplar, in order.
std::uint64_t exemplar_hash(const std::vector<obs::exemplar_record>& records) {
  obs::fnv_state h;
  for (const obs::exemplar_record& r : records) {
    h.real(r.response_ms);
    h.real(r.issued_at_ms);
    h.word(r.request);
    h.word(r.user);
    h.word(r.group);
    h.word(r.slot);
    h.word(r.success ? 1 : 0);
  }
  return h.hash;
}

void expect_counts(const work_counts& got, const work_counts& want) {
  EXPECT_EQ(got.events, want.events) << "engine events";
  for (std::size_t i = 0; i < kPsCounters.size(); ++i) {
    EXPECT_EQ(got.total[i], want.total[i]) << "total, counter " << i;
  }
  ASSERT_EQ(got.windows.size(), want.windows.size());
  for (std::size_t w = 0; w < want.windows.size(); ++w) {
    for (std::size_t i = 0; i < kPsCounters.size(); ++i) {
      EXPECT_EQ(got.windows[w][i], want.windows[w][i])
          << "window " << w << ", counter " << i;
    }
  }
}

TEST(WorkCounts, StudyGapRunIsPinned) {
  // One replication of the golden study-gap run, built the way
  // run_scenario builds it (GoldenEquivalence pins its fingerprint).
  tasks::task_pool pool;
  const exp::scenario_spec spec = study_gap_spec();
  const exp::replication_plan plan = spec.plan(1);
  const exp::replication_context context{0, plan.seeds[0]};
  util::rng stream = context.stream();
  core::system_config config = exp::make_system_config(spec, pool, stream);
  config.record_request_series = false;
  core::offloading_system system{std::move(config), pool};
  system.run(spec.duration);
  ASSERT_EQ(exp::digest_metrics(system.metrics(), exp::group_count_of(spec),
                                context.seed)
                .background_submitted,
            239'317u);

  work_counts got;
  got.events = system.simulation().executed_events();
  got.total = ps_of(system.observability());
  got.windows = ps_windows(system.timeline());

  work_counts want;
  // Background-only instances replay their wakes instead of scheduling
  // them, so the engine runs 9,547 events where it ran 247,731 when every
  // wake was an event; the PS counts did not move.
  want.events = 9'547;
  want.total = {239'613, 244'529, 4'917, 4'762};
  want.windows = {{44'151, 45'041, 890, 875},
                  {45'041, 45'975, 934, 883},
                  {60'058, 61'300, 1'243, 1'197},
                  {90'063, 91'907, 1'844, 1'801},
                  {300, 306, 6, 6}};
  expect_counts(got, want);
}

TEST(WorkCounts, SmokeFleetIsPinned) {
  // run_fleet's fault-free round loop over the four shards, kept here so
  // the shards' engines stay readable after the run.
  tasks::task_pool tasks;
  const exp::scenario_spec spec = smoke_fleet_spec();
  const std::size_t shards = spec.fleet_shards;
  const exp::shared_study study = exp::make_study(spec);
  std::vector<std::unique_ptr<fleet::shard>> members;
  for (std::size_t k = 0; k < shards; ++k) {
    members.push_back(std::make_unique<fleet::shard>(
        spec, tasks, k, shards, fleet::shard_obs{}, study));
    members.back()->begin();
  }
  fleet::coordinator coord{fleet::fleet_allocation_shape(spec)};
  std::size_t slot = 0;
  for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
       boundary += spec.slot_length, ++slot) {
    std::vector<fleet::demand_digest> digests;
    for (auto& member : members) {
      digests.push_back(member->advance_to_slot(slot));
    }
    const auto quotas = coord.allocate_slot(digests);
    for (std::size_t k = 0; k < shards; ++k) {
      if (quotas[k]) members[k]->apply_quota(*quotas[k]);
    }
  }
  std::vector<exp::replication_metrics> per_shard;
  for (auto& member : members) per_shard.push_back(member->finish());
  // The fleet mca_bench --smoke runs, bit for bit.
  ASSERT_EQ(exp::merge_replications(per_shard).fingerprint(),
            0xdb8cb3c02b5eba73ULL);

  work_counts got;
  obs::registry registry;
  obs::timeline timeline;
  for (const auto& member : members) {
    got.events += member->system().simulation().executed_events();
    registry.merge(member->observability());
    timeline.merge(member->timeline());
  }
  got.total = ps_of(registry);
  got.windows = ps_windows(timeline);

  work_counts want;
  want.events = 376'471;
  want.total = {90'738, 90'806, 68, 88'746};
  want.windows = {{33'385, 33'453, 68, 31'464},
                  {20'832, 20'832, 0, 20'785},
                  {18'603, 18'603, 0, 18'588},
                  {17'907, 17'907, 0, 17'898},
                  {11, 11, 0, 11}};
  expect_counts(got, want);
}

TEST(WorkCounts, SmokeFleetExemplarsArePinned) {
  // Which requests the fleet's tail reservoirs keep, fault-free and under
  // the fault program, from run_fleet with its default options (top 4 per
  // window, 5 windows).
  struct pin {
    exp::scenario_spec spec;
    std::uint64_t fingerprint;
    std::uint64_t admitted;
    std::uint64_t hash;
  };
  const pin pins[] = {
      {smoke_fleet_spec(), 0xdb8cb3c02b5eba73ULL, 546, 0x6cc5deb03373eb00ULL},
      {smoke_faulted_fleet_spec(), 0xb7cbc1b55dbd3feaULL, 564, 0xceb17fe47e80bf68ULL},
  };
  tasks::task_pool tasks;
  exp::thread_pool pool{1};
  for (const pin& want : pins) {
    SCOPED_TRACE(want.spec.name);
    const fleet::fleet_result result =
        fleet::run_fleet(want.spec, fleet::fleet_options{}, tasks, pool);
    ASSERT_EQ(result.fingerprint(), want.fingerprint);
    EXPECT_EQ(result.exemplars.size(), 20u);
    EXPECT_EQ(result.observability.get(obs::counter::exemplar_admitted),
              want.admitted);
    EXPECT_EQ(exemplar_hash(result.exemplars), want.hash);
  }
}

}  // namespace
}  // namespace mca
