#include "exp/scenario.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "client/usage_trace.h"
#include "cloud/instance_type.h"
#include "workload/generator.h"

namespace mca::exp {

namespace {

// The study-session gap model (gap_model::study_sessions): the share of
// gaps drawn from the smartphone study band, and the median and log-space
// sigma of the lognormal between-session idle period the rest fall into.
constexpr double kSessionProbability = 0.8;
constexpr util::time_ms kIdleGapMedian = util::minutes(55.0);
constexpr double kIdleGapSigma = 0.6;

/// FNV-1a accumulator over the aggregate's scalar fields.
struct fingerprint_state {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void word(std::uint64_t w) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  void real(double x) noexcept { word(std::bit_cast<std::uint64_t>(x)); }
  void stats(const util::running_stats& s) noexcept {
    word(s.count());
    real(s.mean());
    real(s.variance());
    real(s.min());
    real(s.max());
  }
};

}  // namespace

const char* to_string(task_mix mix) noexcept {
  switch (mix) {
    case task_mix::static_minimax: return "static_minimax";
    case task_mix::random_pool: return "random_pool";
  }
  return "?";
}

const char* to_string(gap_model model) noexcept {
  switch (model) {
    case gap_model::study_sessions: return "study_sessions";
    case gap_model::exponential: return "exponential";
  }
  return "?";
}

std::size_t group_count_of(const scenario_spec& spec) {
  group_id max_group = 1;
  for (const auto& g : spec.groups) max_group = std::max(max_group, g.group);
  return static_cast<std::size_t>(max_group) + 1;
}

void validate(const scenario_spec& spec) {
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument{"scenario_spec '" + spec.name + "': " + what};
  };
  if (spec.user_count == 0) reject("user_count must be > 0");
  if (!(spec.duration > 0.0)) reject("duration must be positive");
  if (!(spec.slot_length > 0.0)) reject("slot_length must be positive");
  if (spec.groups.empty()) reject("groups must not be empty");
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    const core::group_backend_spec& group = spec.groups[i];
    const std::string field = "groups[" + std::to_string(i) + "].";
    try {
      cloud::type_by_name(group.type_name);
    } catch (const std::out_of_range&) {
      reject(field + "type_name '" + group.type_name +
             "' is not a catalog instance type");
    }
    if (!(group.capacity_per_instance > 0.0)) {
      reject(field + "capacity_per_instance must be positive");
    }
  }
  if (spec.max_total_instances == 0) reject("max_total_instances must be > 0");
  if (spec.gaps == gap_model::exponential && !(spec.arrival_rate_hz > 0.0)) {
    reject("arrival_rate_hz must be positive with exponential gaps");
  }
  if (!(spec.promotion_probability >= 0.0 &&
        spec.promotion_probability <= 1.0)) {
    reject("promotion_probability must be in [0, 1]");
  }
  if (spec.background_requests_per_burst > 0 &&
      !(spec.background_burst_period > 0.0)) {
    reject("background_burst_period must be positive while bursts are on");
  }
  // Malformed fault programs (negative hazards, outage windows outside
  // the run, a zero retry budget with fallback disabled) fail here, once,
  // with the offending field named — not once per replication.
  fault::validate(spec.faults, spec.duration,
                  ("scenario_spec '" + spec.name + "'").c_str());
}

core::system_config make_system_config(const scenario_spec& spec,
                                       const tasks::task_pool& pool,
                                       util::rng& stream) {
  validate(spec);
  core::system_config config;
  config.groups = spec.groups;
  config.user_count = spec.user_count;
  config.slot_length = spec.slot_length;
  config.max_total_instances = spec.max_total_instances;
  config.predictor_mode = spec.predictor_mode;
  config.background_requests_per_burst = spec.background_requests_per_burst;
  config.background_burst_period = spec.background_burst_period;
  config.seed = stream();

  switch (spec.tasks) {
    case task_mix::static_minimax:
      config.tasks = workload::static_source(pool.static_minimax_request());
      break;
    case task_mix::random_pool:
      config.tasks = workload::random_pool_source(pool);
      break;
  }

  switch (spec.gaps) {
    case gap_model::study_sessions: {
      // Each replication synthesizes its own smartphone study, so the
      // empirical gap distribution itself varies across the sweep.
      auto study = std::make_shared<util::empirical_distribution>(
          client::study_interarrival_distribution({}, stream()));
      const double idle_mu = std::log(kIdleGapMedian);
      config.gaps = [study, idle_mu](util::rng& rng) {
        if (rng.bernoulli(kSessionProbability)) return study->sample(rng);
        return rng.lognormal(idle_mu, kIdleGapSigma);
      };
      break;
    }
    case gap_model::exponential:
      config.gaps = workload::exponential_interarrival(spec.arrival_rate_hz);
      break;
  }

  const double promote = spec.promotion_probability;
  config.policy_factory = [promote] {
    return std::make_unique<client::static_probability_promotion>(promote);
  };

  if (spec.faults.active()) {
    config.faults = spec.faults;
    // One expanded trace per spec (not per replication): every seed of
    // the sweep — and every shard of a fleet run — injects the same
    // global fault set, keyed off base_seed alone.
    config.preemption_schedule = fault::make_preemption_schedule(
        spec.faults, spec.duration, spec.base_seed);
  }
  return config;
}

namespace {

/// The one place a replication is materialized and run.  `record_raw`
/// keeps the per-request series (the figure benches' mode); off, only the
/// streaming digest accumulates (the fleet / digest-sweep mode).
/// Identical simulation either way (gated by test_golden_equivalence).
core::system_metrics run_one_replication(const scenario_spec& spec,
                                         const tasks::task_pool& pool,
                                         const replication_context& context,
                                         bool record_raw) {
  util::rng stream = context.stream();
  core::system_config config = make_system_config(spec, pool, stream);
  config.record_request_series = record_raw;
  core::offloading_system system{std::move(config), pool};
  system.run(spec.duration);
  return system.metrics();
}

}  // namespace

core::system_metrics run_replication(const scenario_spec& spec,
                                     const tasks::task_pool& pool,
                                     const replication_context& context) {
  return run_one_replication(spec, pool, context, /*record_raw=*/true);
}

replication_metrics::replication_metrics(std::size_t group_count)
    : group_response(group_count),
      group_successes(group_count, 0),
      group_instances(group_count) {}

aggregate_metrics::aggregate_metrics(std::size_t group_count)
    : group_response(group_count),
      group_successes(group_count, 0),
      group_instances(group_count) {}

replication_metrics digest_metrics(const core::system_metrics& metrics,
                                   std::size_t group_count,
                                   std::uint64_t seed) {
  replication_metrics digest{group_count};
  digest.seed = seed;
  digest.promotions = metrics.promotions;
  digest.demotions = metrics.demotions;
  digest.background_submitted = metrics.background_submitted;
  digest.total_cost_usd = metrics.total_cost_usd;
  // The system streamed these aggregates on its response path, so the
  // raw request series is not needed (and fleet-scale runs never record it).
  const auto& streamed = metrics.digest;
  digest.requests = streamed.issued;
  digest.successes = streamed.succeeded;
  digest.response = streamed.response;
  digest.latency = streamed.latency;
  const std::size_t groups =
      std::min(group_count, streamed.group_response.size());
  for (std::size_t g = 0; g < groups; ++g) {
    digest.group_response[g] = streamed.group_response[g];
    digest.group_successes[g] = streamed.group_successes[g];
  }
  for (const auto& slot : metrics.slots) {
    if (slot.accuracy) {
      digest.mean_prediction_accuracy += *slot.accuracy;
      ++digest.scored_slots;
    }
    if (!slot.plan) continue;
    std::vector<std::size_t> per_group(group_count, 0);
    for (const auto& entry : slot.plan->entries) {
      if (entry.group < group_count) per_group[entry.group] += entry.count;
    }
    for (std::size_t g = 0; g < group_count; ++g) {
      digest.group_instances[g].add(static_cast<double>(per_group[g]));
    }
  }
  if (digest.scored_slots > 0) {
    digest.mean_prediction_accuracy /=
        static_cast<double>(digest.scored_slots);
  }
  return digest;
}

aggregate_metrics merge_replications(
    std::span<const replication_metrics> ordered) {
  const std::size_t groups =
      ordered.empty() ? 0 : ordered.front().group_response.size();
  aggregate_metrics aggregate{groups};
  for (const auto& r : ordered) {
    ++aggregate.replications;
    aggregate.requests += r.requests;
    aggregate.successes += r.successes;
    aggregate.promotions += r.promotions;
    aggregate.demotions += r.demotions;
    aggregate.background_submitted += r.background_submitted;
    aggregate.cost_usd.add(r.total_cost_usd);
    if (r.scored_slots > 0) aggregate.accuracy.add(r.mean_prediction_accuracy);
    aggregate.response.merge(r.response);
    aggregate.latency.merge(r.latency);
    // Whole-array merges: the histogram fold vectorizes over bins and the
    // batched Welford fold overlaps independent groups (util/simd.h,
    // util::merge_each) — per-element math is unchanged.
    util::merge_each(aggregate.group_response, r.group_response);
    util::merge_each(aggregate.group_instances, r.group_instances);
    for (std::size_t g = 0; g < groups; ++g) {
      aggregate.group_successes[g] += r.group_successes[g];
    }
  }
  return aggregate;
}

double aggregate_metrics::acceptance_rate() const noexcept {
  if (requests == 0) return 0.0;
  return static_cast<double>(successes) / static_cast<double>(requests);
}

std::uint64_t aggregate_metrics::fingerprint() const noexcept {
  fingerprint_state fnv;
  fnv.word(replications);
  fnv.word(requests);
  fnv.word(successes);
  fnv.word(promotions);
  fnv.word(demotions);
  fnv.word(background_submitted);
  fnv.stats(cost_usd);
  fnv.stats(accuracy);
  fnv.stats(response);
  fnv.word(latency.total());
  for (std::size_t b = 0; b < latency.bin_count(); ++b) {
    fnv.word(latency.count_in_bin(b));
  }
  for (std::size_t g = 0; g < group_response.size(); ++g) {
    fnv.stats(group_response[g]);
    fnv.word(group_successes[g]);
    fnv.stats(group_instances[g]);
  }
  return fnv.hash;
}

scenario_result run_scenario(const scenario_spec& spec,
                             const replication_plan& plan,
                             const tasks::task_pool& task_pool,
                             thread_pool& pool) {
  // A malformed spec fails the whole call, not every replication
  // individually: the mistake is in the input, not in any one seed.
  validate(spec);
  const std::size_t groups = group_count_of(spec);
  // mca-lint: allow(det-wallclock) serial-vs-parallel wall timing for the
  // runner's speedup report; digests and fingerprints never read it.
  const auto start = std::chrono::steady_clock::now();
  auto outcome = run_replications(
      pool, plan, [&](const replication_context& context) {
        // Digest-only replications run lean: no raw request series — the
        // streaming digest carries everything the merge needs.
        return digest_metrics(
            run_one_replication(spec, task_pool, context,
                                /*record_raw=*/false),
            groups, context.seed);
      });
  // mca-lint: allow(det-wallclock) see above: advisory wall time only.
  const auto stop = std::chrono::steady_clock::now();

  scenario_result result;
  result.errors = std::move(outcome.errors);
  result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  for (auto& slot : outcome.results) {
    if (slot.has_value()) {
      result.per_replication.push_back(std::move(*slot));
    }
  }
  result.aggregate = merge_replications(result.per_replication);
  return result;
}

std::vector<scenario_spec> builtin_scenarios() {
  // Durations are trimmed against the paper's 8 h so the whole suite
  // (serial + parallel legs) finishes in seconds; --replications and the
  // spec fields scale it back up to fleet size.
  scenario_spec fig9;
  fig9.name = "fig9_closed_loop";
  fig9.base_seed = 2017;
  fig9.duration = util::hours(2);

  scenario_spec fig10;
  fig10.name = "fig10_adaptive";
  fig10.base_seed = 1016;
  fig10.duration = util::hours(2);
  fig10.tasks = task_mix::random_pool;
  fig10.slot_length = util::minutes(30.0);
  fig10.background_requests_per_burst = 20;

  // Fleet scale: a larger population spread over four acceleration groups,
  // each provisioned from two EC2 tiers, so every slot boundary feeds the
  // bounded-variable ILP a multi-candidate, many-group allocation instead
  // of the three one-candidate groups of the paper scenarios.
  scenario_spec fleet;
  fleet.name = "fleet";
  fleet.base_seed = 64;
  fleet.user_count = 400;
  fleet.duration = util::hours(1.5);
  fleet.slot_length = util::minutes(20.0);
  fleet.max_total_instances = 96;
  fleet.groups = {
      {1, "t2.nano", 1, 4.0},      {1, "t2.small", 0, 18.0},
      {2, "t2.medium", 1, 12.0},   {2, "t2.large", 0, 26.0},
      {3, "m4.4xlarge", 1, 100.0}, {3, "m4.10xlarge", 0, 240.0},
      {4, "c4.8xlarge", 1, 220.0},
  };
  fleet.tasks = task_mix::random_pool;
  fleet.promotion_probability = 1.0 / 30.0;
  fleet.background_requests_per_burst = 10;
  fleet.background_burst_period = util::seconds(5.0);
  // Sharded by default when driven through fleet::run_fleet
  // (examples/fleet_demo); the account cap stays the fleet-wide 96.
  fleet.fleet_shards = 4;
  fleet.fleet_max_total_instances = 96;

  scenario_spec smoke;
  smoke.name = "smoke";
  smoke.base_seed = 7;
  smoke.user_count = 12;
  smoke.duration = util::minutes(40.0);
  smoke.slot_length = util::minutes(10.0);
  smoke.gaps = gap_model::exponential;
  smoke.arrival_rate_hz = 0.05;
  smoke.background_requests_per_burst = 4;
  smoke.background_burst_period = util::seconds(10.0);
  smoke.groups = {{1, "t2.nano", 1, 4.0}, {2, "t2.large", 1, 30.0}};

  return {fig9, fig10, fleet, smoke};
}

}  // namespace mca::exp
