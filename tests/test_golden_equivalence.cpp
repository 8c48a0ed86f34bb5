// Golden semantic-equivalence gate for the PR-5 hot-path overhaul.
//
// The per-request pipeline was rewritten around pooled state, SoA user
// slabs, and streaming digests; sorted slot user lists take an exact
// sparse edit distance over their shared users instead of the full DP;
// the slot scan became a streaming accumulator.  None of that may change
// simulation semantics.  Three layers of protection:
//
//  1. Pinned goldens — request counts, acceptance, billing totals and the
//     mean response for a fixed scenario/seed, plus the digest's p50/p95
//     read off the log-linear latency histogram, asserted here.  Integer counts are
//     exact; monetary/latency aggregates allow float-noise tolerance.
//  2. Properties — the streaming request digest must equal the digest
//     recomputed from the raw per-request series, its percentiles must lie
//     within the histogram's 2^-5 relative bound of the raw series' exact
//     ones, the registry's request and success counts must equal what the
//     response sink received in every builtin scenario, with and without
//     faults, a run must not depend on whether the raw series is
//     recorded at all, and a replication must run the same whether
//     run_scenario shares the spec's study with it or it builds its own.
//  3. Pinned fingerprints — the 64-bit FNV-1a hashes of the monolith's
//     merged digest, of the sharded fleet's aggregate, counter registry
//     and timeline, and of a trimmed fig9_closed_loop run (the only pin on
//     the study-session gap model), bit for bit.  Every count and double
//     bit pattern feeds them, so these catch drift the tolerances above
//     let through.  A deliberate re-golden updates the values here and
//     lists the old and new ones in CHANGES.md.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "exp/thread_pool.h"
#include "fault/fault_program.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard.h"
#include "obs/registry.h"
#include "tasks/task.h"

namespace mca {
namespace {

/// The fixed scenario the goldens are recorded on (seed 20170): mixed
/// task pool, Poisson gaps, background load, promotions, four backend
/// tiers over three groups, five 10-minute slots.
exp::scenario_spec golden_spec() {
  exp::scenario_spec spec;
  spec.name = "golden";
  spec.base_seed = 20170;
  spec.user_count = 600;
  spec.duration = util::minutes(50.0);
  spec.slot_length = util::minutes(10.0);
  spec.tasks = exp::task_mix::random_pool;
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.02;
  spec.background_requests_per_burst = 5;
  spec.background_burst_period = util::seconds(10.0);
  spec.promotion_probability = 1.0 / 40.0;
  spec.groups = {
      {1, "t2.nano", 2, 6.0},      {1, "t2.small", 0, 18.0},
      {2, "t2.large", 1, 30.0},    {3, "m4.4xlarge", 1, 100.0},
  };
  spec.max_total_instances = 40;
  spec.fleet_max_total_instances = 40;
  spec.fleet_shards = 3;
  return spec;
}

exp::replication_metrics run_golden_digest() {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::replication_context ctx;
  ctx.index = 0;
  ctx.seed = spec.base_seed;
  const core::system_metrics metrics = exp::run_replication(spec, pool, ctx);
  return exp::digest_metrics(metrics, exp::group_count_of(spec), ctx.seed);
}

TEST(GoldenEquivalence, MonolithicRunMatchesPreRefactorGoldens) {
  const exp::replication_metrics digest = run_golden_digest();

  // Any drift here means a change altered what is simulated, not just how
  // fast; a deliberate re-golden lists the old and new values in
  // CHANGES.md.
  EXPECT_EQ(digest.requests, 36182u);
  EXPECT_EQ(digest.successes, 36182u);
  EXPECT_EQ(digest.promotions, 752u);
  EXPECT_EQ(digest.background_submitted, 64210u);
  // Whole $0.0001 summed as integers: the bill is exactly its decimal.
  EXPECT_EQ(digest.total_cost_usd, 4.3754);
  EXPECT_EQ(digest.response.count(), 36182u);
  EXPECT_NEAR(digest.response.mean(), 221.7416876918, 1e-6);
  EXPECT_EQ(digest.latency.total(), 36182u);
  // Read off the log-linear histogram (raw series: 211.3150 / 298.7926).
  EXPECT_NEAR(digest.latency.quantile_interpolated(0.50), 211.2452350699,
              1e-6);
  EXPECT_NEAR(digest.latency.quantile_interpolated(0.95), 298.9312883436,
              1e-6);

  const std::array<exp::replication_metrics, 1> replications{digest};
  EXPECT_EQ(exp::merge_replications(replications).fingerprint(),
            0xd33116d99177ec5aULL);
}

TEST(GoldenEquivalence, ShardedFleetMatchesPreRefactorGoldens) {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::thread_pool tpool{2};
  fleet::fleet_options options;
  options.shards = 3;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, pool, tpool);

  EXPECT_EQ(result.aggregate.requests, 36269u);
  EXPECT_EQ(result.aggregate.successes, 32560u);
  EXPECT_EQ(result.aggregate.promotions, 720u);
  EXPECT_NEAR(result.aggregate.cost_usd.mean(), 1.5025666667, 1e-9);
  EXPECT_EQ(result.aggregate.latency.total(), 32560u);
  EXPECT_NEAR(result.aggregate.response.mean(), 222.2031707630, 1e-6);
  EXPECT_EQ(result.ilp_solves, 4u);
  EXPECT_EQ(result.slot_count, 5u);

  EXPECT_EQ(result.fingerprint(), 0xfe528d5c3031686dULL);
  EXPECT_EQ(result.observability.fingerprint(), 0xa8f007c8c404d16fULL);
  EXPECT_EQ(result.timeline.fingerprint(), 0x7bda54dd8e62ee36ULL);
}

/// The builtin fig9_closed_loop scenario (study-session gaps, static
/// minimax, 50-job background bursts), trimmed to 40 minutes of 10-minute
/// slots so every gap-model constant, the predictor and the slot-boundary
/// ILP run inside a sub-second test.
exp::scenario_spec study_session_spec() {
  for (exp::scenario_spec spec : exp::builtin_scenarios()) {
    if (spec.name != "fig9_closed_loop") continue;
    spec.duration = util::minutes(40.0);
    spec.slot_length = util::minutes(10.0);
    return spec;
  }
  ADD_FAILURE() << "fig9_closed_loop scenario missing";
  return {};
}

TEST(GoldenEquivalence, StudySessionGapsMatchPinnedFingerprint) {
  tasks::task_pool pool;
  const exp::scenario_spec spec = study_session_spec();
  ASSERT_EQ(spec.gaps, exp::gap_model::study_sessions);
  ASSERT_EQ(spec.tasks, exp::task_mix::static_minimax);
  ASSERT_EQ(spec.background_requests_per_burst, 50u);
  exp::thread_pool tpool{1};
  const exp::scenario_result result =
      exp::run_scenario(spec, spec.plan(1), pool, tpool);
  ASSERT_TRUE(result.errors.empty());
  const exp::aggregate_metrics& aggregate = result.aggregate;
  EXPECT_EQ(aggregate.requests, 664u);
  EXPECT_EQ(aggregate.successes, 296u);
  EXPECT_EQ(aggregate.promotions, 2u);
  EXPECT_EQ(aggregate.background_submitted, 239317u);
  EXPECT_EQ(aggregate.accuracy.count(), 1u);
  EXPECT_EQ(aggregate.fingerprint(), 0x6249fb4878e4a5aaULL);
}

TEST(GoldenEquivalence, SharedStudyRunsWhatEachReplicationBuildsAlone) {
  // run_scenario synthesizes the spec's study once and shares it across
  // the batch; a replication built on its own through make_system_config
  // synthesizes the same study, so it must run the same simulation, at
  // every pool size.
  tasks::task_pool pool;
  const exp::scenario_spec spec = study_session_spec();
  const exp::replication_plan plan = spec.plan(2);
  const std::size_t groups = exp::group_count_of(spec);
  std::vector<exp::replication_metrics> alone;
  for (std::size_t i = 0; i < plan.count(); ++i) {
    const exp::replication_context context{i, plan.seeds[i]};
    util::rng stream = context.stream();
    core::system_config config = exp::make_system_config(spec, pool, stream);
    config.record_request_series = false;
    core::offloading_system system{std::move(config), pool};
    system.run(spec.duration);
    alone.push_back(
        exp::digest_metrics(system.metrics(), groups, context.seed));
  }
  for (const std::size_t jobs : {1u, 2u}) {
    exp::thread_pool tpool{jobs};
    const exp::scenario_result result =
        exp::run_scenario(spec, plan, pool, tpool);
    ASSERT_TRUE(result.errors.empty()) << jobs << " jobs";
    ASSERT_EQ(result.per_replication.size(), alone.size()) << jobs << " jobs";
    for (std::size_t i = 0; i < alone.size(); ++i) {
      EXPECT_EQ(
          exp::merge_replications({&result.per_replication[i], 1})
              .fingerprint(),
          exp::merge_replications({&alone[i], 1}).fingerprint())
          << "replication " << i << ", " << jobs << " jobs";
    }
    EXPECT_EQ(result.aggregate.fingerprint(),
              exp::merge_replications(alone).fingerprint())
        << jobs << " jobs";
  }
}

TEST(GoldenEquivalence, ReplicationsAndShardsDrawFromOneStudy) {
  // Replications and fleet shards differ in their rng streams, not in the
  // study their gaps come from: fed identically seeded rngs, their gap
  // functions draw the same gaps.
  tasks::task_pool pool;
  const exp::scenario_spec spec = study_session_spec();
  const exp::replication_plan plan = spec.plan(2);
  std::vector<workload::interarrival_fn> gap_fns;
  for (std::size_t i = 0; i < plan.count(); ++i) {
    util::rng stream = exp::replication_context{i, plan.seeds[i]}.stream();
    gap_fns.push_back(exp::make_system_config(spec, pool, stream).gaps);
  }
  for (std::size_t k = 0; k < 2; ++k) {
    fleet::shard member{spec, pool, k, 2};
    gap_fns.push_back(member.system().config().gaps);
  }
  const auto first_gaps = [](const workload::interarrival_fn& gaps) {
    util::rng rng{4242};
    std::vector<double> out(1'000);
    for (double& g : out) g = gaps(rng);
    return out;
  };
  const std::vector<double> want = first_gaps(gap_fns.front());
  for (std::size_t f = 1; f < gap_fns.size(); ++f) {
    EXPECT_EQ(first_gaps(gap_fns[f]), want)
        << (f < plan.count() ? "replication " : "shard ")
        << (f < plan.count() ? f : f - plan.count());
  }
}

TEST(GoldenEquivalence, StreamingDigestEqualsRawSeriesScan) {
  tasks::task_pool pool;
  const exp::scenario_spec spec = golden_spec();
  exp::replication_context ctx;
  ctx.index = 0;
  ctx.seed = spec.base_seed;
  // run_replication records the raw series, so the metrics carry the
  // streaming digest, the registry's counts and the per-request vector.
  const core::system_metrics metrics = exp::run_replication(spec, pool, ctx);
  ASSERT_FALSE(metrics.requests.empty());

  const exp::replication_metrics streamed =
      exp::digest_metrics(metrics, exp::group_count_of(spec), ctx.seed);
  EXPECT_EQ(streamed.requests, metrics.requests.size());

  // Recompute every aggregate from the raw series, in push order — the
  // streamed moments and the registry's counts and histograms must be
  // bit-identical (same add order, same floats).
  util::running_stats response;
  util::histogram latency;
  std::vector<util::running_stats> group_response(
      streamed.group_response.size());
  std::vector<std::uint64_t> group_successes(streamed.group_successes.size(),
                                             0);
  std::vector<double> raw;
  std::size_t successes = 0;
  for (const auto& r : metrics.requests) {
    if (!r.success) continue;
    ++successes;
    raw.push_back(r.response_ms);
    response.add(r.response_ms);
    latency.add(r.response_ms);
    if (r.group < group_response.size()) {
      group_response[r.group].add(r.response_ms);
      ++group_successes[r.group];
    }
  }
  EXPECT_EQ(streamed.successes, successes);
  EXPECT_EQ(streamed.response.count(), response.count());
  EXPECT_EQ(streamed.response.mean(), response.mean());
  EXPECT_EQ(streamed.response.variance(), response.variance());
  EXPECT_EQ(streamed.response.min(), response.min());
  EXPECT_EQ(streamed.response.max(), response.max());
  ASSERT_EQ(streamed.latency.bin_count(), latency.bin_count());
  for (std::size_t b = 0; b < latency.bin_count(); ++b) {
    EXPECT_EQ(streamed.latency.count_in_bin(b), latency.count_in_bin(b));
  }

  // The digest's percentiles against the raw series' exact interpolated
  // order statistics (numpy "linear"): within the histogram's documented
  // relative bound of 2^-5.
  std::sort(raw.begin(), raw.end());
  for (double q : {0.50, 0.95, 0.99}) {
    const double rank = q * static_cast<double>(raw.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, raw.size() - 1);
    const double exact =
        raw[lo] + (rank - static_cast<double>(lo)) * (raw[hi] - raw[lo]);
    EXPECT_LE(std::abs(streamed.latency.quantile_interpolated(q) - exact),
              exact / 32.0)
        << "q=" << q << " exact=" << exact;
  }
  for (std::size_t g = 0; g < group_response.size(); ++g) {
    EXPECT_EQ(streamed.group_response[g].count(), group_response[g].count());
    EXPECT_EQ(streamed.group_response[g].mean(), group_response[g].mean());
    EXPECT_EQ(streamed.group_successes[g], group_successes[g]);
  }

  // The per-user index must agree with a linear scan of the raw series.
  for (user_id u = 0; u < 5; ++u) {
    std::vector<double> scanned;
    for (const auto& r : metrics.requests) {
      if (r.user == u && r.success) scanned.push_back(r.response_ms);
    }
    EXPECT_EQ(metrics.user_response_series(u), scanned);
  }
}

/// A fault program under which requests fail outright: spot preemptions
/// in every group, an outage of group 1, a per-attempt timeout, one retry
/// and no local fallback.
fault::fault_program failing_faults(std::size_t group_count) {
  fault::fault_program program;
  program.enabled = true;
  program.preempt_hazard_per_hour.assign(group_count, 12.0);
  program.preempt_hazard_per_hour[0] = 0.0;
  program.outages = {{1, util::minutes(12.0), util::minutes(18.0)}};
  program.max_retries = 1;
  program.request_timeout_ms = 5'000.0;
  program.retry_backoff_base_ms = 100.0;
  program.retry_backoff_cap_ms = 400.0;
  program.local_fallback = false;
  return program;
}

TEST(GoldenEquivalence, RegistryCountsEqualSinkSeriesWithAndWithoutFaults) {
  // exp::digest_metrics takes requests and successes from the SDN's
  // registry counts; the raw series is what the system's response sink
  // received.  The two tally one event stream independently, so they must
  // agree in every builtin scenario, faulted or not: a response the SDN
  // counts but the sink never sees, or the reverse, breaks this.
  tasks::task_pool pool;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t killed = 0;
  for (exp::scenario_spec spec : exp::builtin_scenarios()) {
    spec.duration = util::minutes(40.0);  // keep every run sub-second
    spec.slot_length = util::minutes(10.0);
    const std::size_t groups = exp::group_count_of(spec);
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(spec.name + (faulted ? " with faults" : ""));
      exp::scenario_spec run = spec;
      if (faulted) run.faults = failing_faults(groups);
      exp::replication_context ctx;
      ctx.seed = run.base_seed;
      const core::system_metrics metrics =
          exp::run_replication(run, pool, ctx);
      const exp::replication_metrics digest =
          exp::digest_metrics(metrics, groups, ctx.seed);

      std::uint64_t successes = 0;
      std::vector<std::uint64_t> group_successes(groups, 0);
      for (const auto& r : metrics.requests) {
        if (!r.success) continue;
        ++successes;
        if (r.group < groups) ++group_successes[r.group];
      }
      const obs::registry& counts = metrics.observability;
      ASSERT_GT(metrics.requests.size(), 0u);
      EXPECT_EQ(counts.get(obs::counter::sdn_requests),
                metrics.requests.size());
      EXPECT_EQ(digest.requests, metrics.requests.size());
      EXPECT_EQ(digest.successes, successes);
      EXPECT_EQ(digest.response.count(), successes);
      EXPECT_EQ(digest.latency.total(), successes);
      EXPECT_EQ(digest.group_successes, group_successes);
      if (faulted) {
        failures += counts.get(obs::counter::sdn_failures);
        retries += counts.get(obs::counter::sdn_retries);
        timeouts += counts.get(obs::counter::sdn_timeouts);
        killed += counts.get(obs::counter::fault_inflight_killed);
      }
    }
  }
  // The faulted runs took the paths a fault-free run never does.
  EXPECT_GT(failures, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(killed, 0u);
}

TEST(GoldenEquivalence, RawSeriesFlagDoesNotChangeSimulation) {
  tasks::task_pool pool;
  exp::scenario_spec spec = golden_spec();
  spec.user_count = 120;  // keep this variant quick
  spec.duration = util::minutes(30.0);

  const std::size_t groups = exp::group_count_of(spec);
  auto run_with_series = [&](bool record) {
    util::rng stream{spec.base_seed};
    core::system_config config = exp::make_system_config(spec, pool, stream);
    config.record_request_series = record;
    core::offloading_system system{std::move(config), pool};
    system.run(spec.duration);
    return exp::digest_metrics(system.metrics(), groups, spec.base_seed);
  };

  const exp::replication_metrics with_series = run_with_series(true);
  const exp::replication_metrics without_series = run_with_series(false);

  EXPECT_EQ(with_series.requests, without_series.requests);
  EXPECT_EQ(with_series.successes, without_series.successes);
  EXPECT_EQ(with_series.promotions, without_series.promotions);
  EXPECT_EQ(with_series.total_cost_usd, without_series.total_cost_usd);
  EXPECT_EQ(with_series.response.mean(), without_series.response.mean());
  EXPECT_EQ(with_series.latency.total(), without_series.latency.total());
  EXPECT_EQ(with_series.mean_prediction_accuracy,
            without_series.mean_prediction_accuracy);
}

}  // namespace
}  // namespace mca
