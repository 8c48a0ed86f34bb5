// Declarative closed-loop experiment scenarios and their replicated,
// deterministically merged metrics.
//
// A `scenario_spec` describes one §VI-C-style experiment — device
// population, workload model, group backends, provisioning policy,
// duration — as plain data instead of callbacks, so the runner can
// materialize a fresh `core::system_config` (with a fresh rng stream) for
// every replication.  `run_scenario` farms the replications out to the
// batch pool and folds the per-replication digests into an
// `aggregate_metrics` whose bytes depend only on (spec, plan), never on
// thread count or completion order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/system.h"
#include "exp/runner.h"
#include "fault/fault_program.h"
#include "exp/thread_pool.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace mca::exp {

/// Task mix of the workload (maps onto workload::*_source factories).
enum class task_mix { static_minimax, random_pool };
/// Inter-arrival model per device.
enum class gap_model { study_sessions, exponential };

const char* to_string(task_mix mix) noexcept;
const char* to_string(gap_model model) noexcept;

/// Full declarative description of one closed-loop experiment.
struct scenario_spec {
  std::string name = "closed_loop";

  // --- deployment ---
  std::vector<core::group_backend_spec> groups = {
      {1, "t2.nano", 1, 4.0},
      {2, "t2.large", 1, 30.0},
      {3, "m4.4xlarge", 1, 100.0},
  };
  std::size_t max_total_instances = 20;  ///< CC account cap
  util::time_ms slot_length = util::hours(1);
  core::prediction_mode predictor_mode = core::prediction_mode::successor;

  // --- workload ---
  std::size_t user_count = 100;
  util::time_ms duration = util::hours(8);
  task_mix tasks = task_mix::static_minimax;
  /// study_sessions: 80% of gaps come from the smartphone study band, the
  /// rest are lognormal between-session idle periods (median 55 min,
  /// sigma 0.6) — fixed constants in scenario.cpp.
  gap_model gaps = gap_model::study_sessions;
  /// exponential: per-device arrival rate.
  double arrival_rate_hz = 0.01;

  // --- promotion ---
  double promotion_probability = 1.0 / 50.0;

  // --- induced background load ---
  std::size_t background_requests_per_burst = 50;
  util::time_ms background_burst_period = util::seconds(2.0);

  // --- fleet (src/fleet) ---
  /// Shard count fleet::run_fleet splits the population into when the
  /// caller does not override it (<= 1 means the scenario is meant to run
  /// monolithically).
  std::size_t fleet_shards = 0;
  /// Account-wide instance cap of the fleet's batched ILP; 0 falls back to
  /// max_total_instances.  Distinct knob because one shard's cap and the
  /// whole account's cap differ by orders of magnitude at fleet scale.
  std::size_t fleet_max_total_instances = 0;

  // --- fault injection & resilience (src/fault) ---
  /// Deterministic availability hazards (spot preemption, outage windows,
  /// cold starts) plus the retry/backoff/local-fallback knobs.  Inert by
  /// default; validate() rejects malformed programs against `duration`.
  /// Every replication shares one expanded fault trace (seeded from
  /// base_seed), modelling a common environment across the sweep.
  fault::fault_program faults;

  /// Experiment seed; replication i draws from rng::split(seed, i) (or
  /// from the plan's explicit per-replication seeds).
  std::uint64_t base_seed = 2017;

  /// The plan implied by the spec: `replications` splits of base_seed.
  replication_plan plan(std::size_t replications) const {
    return replication_plan::sweep(base_seed, replications);
  }
};

/// Validates a spec before materialization.  Rejects a zero user_count, a
/// non-positive duration or slot_length, an empty group list, a group
/// whose type_name is not in the catalog or whose capacity_per_instance is
/// not positive, a zero max_total_instances, a non-positive
/// arrival_rate_hz under exponential gaps, a
/// promotion_probability outside [0, 1], a non-positive
/// background_burst_period while bursts are on, and a malformed fault
/// program, with an error naming the field, instead of silently producing
/// a degenerate run.  The sweep entry points call it so a bad spec fails
/// once, upfront, not once per replication.  Throws std::invalid_argument.
void validate(const scenario_spec& spec);

/// Max group id + 1 across the spec's backends (and the implicit initial
/// group) — the indexing every per-group digest vector uses.
std::size_t group_count_of(const scenario_spec& spec);

/// Materializes the callback-based system config for one replication.
/// `stream` provides all of the replication's randomness; it is advanced.
/// Validates the spec first (see validate()).
core::system_config make_system_config(const scenario_spec& spec,
                                       const tasks::task_pool& pool,
                                       util::rng& stream);

/// Runs one replication in full, returning the raw metrics (for benches
/// that plot per-request series).  Deterministic in (spec, context).
core::system_metrics run_replication(const scenario_spec& spec,
                                     const tasks::task_pool& pool,
                                     const replication_context& context);

/// The per-replication digest that survives into the merge: everything
/// the figure benches aggregate, nothing order- or id-dependent.
struct replication_metrics {
  std::uint64_t seed = 0;
  std::size_t requests = 0;
  std::size_t successes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t background_submitted = 0;
  double total_cost_usd = 0.0;
  double mean_prediction_accuracy = 0.0;  ///< 0 when no slot was scored
  std::size_t scored_slots = 0;
  util::running_stats response;      ///< successful foreground responses
  util::histogram latency;           ///< same responses, log-linear bins
  std::vector<util::running_stats> group_response;   ///< by group id
  std::vector<std::uint64_t> group_successes;        ///< by group id
  std::vector<util::running_stats> group_instances;  ///< planned, per slot

  explicit replication_metrics(std::size_t group_count = 0);
};

/// Digests one replication's metrics from the aggregates the system
/// streamed (`metrics.digest`); the raw request series is not read.
/// `group_count` must cover every group id in the spec
/// (core::offloading_system::group_count()).
replication_metrics digest_metrics(const core::system_metrics& metrics,
                                   std::size_t group_count,
                                   std::uint64_t seed);

/// The deterministic merge of a replication sweep.
struct aggregate_metrics {
  std::size_t replications = 0;
  std::size_t requests = 0;
  std::size_t successes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t background_submitted = 0;
  util::running_stats cost_usd;       ///< per-replication totals
  util::running_stats accuracy;       ///< per-replication means
  util::running_stats response;       ///< pooled successful responses
  util::histogram latency;            ///< pooled bin for bin
  std::vector<util::running_stats> group_response;
  std::vector<std::uint64_t> group_successes;
  std::vector<util::running_stats> group_instances;

  explicit aggregate_metrics(std::size_t group_count = 0);

  /// Successful / issued foreground requests, in [0, 1].
  double acceptance_rate() const noexcept;

  /// FNV-1a over every count and double bit pattern in the aggregate.
  /// Two aggregates are byte-identical iff their fingerprints match (up
  /// to hash collision); used to assert thread-count independence.
  std::uint64_t fingerprint() const noexcept;
};

/// Folds digests in index order.  Must be called with the full, already
/// index-ordered result span (run_replications guarantees that order).
aggregate_metrics merge_replications(
    std::span<const replication_metrics> ordered);

/// One scenario, fully replicated and merged.
struct scenario_result {
  aggregate_metrics aggregate;
  std::vector<replication_metrics> per_replication;  ///< successful, ordered
  std::vector<replication_error> errors;
  double wall_seconds = 0.0;
};

/// Runs every replication of `plan` on `pool` and merges.  Failed
/// replications surface in `errors` and are excluded from the merge.
scenario_result run_scenario(const scenario_spec& spec,
                             const replication_plan& plan,
                             const tasks::task_pool& task_pool,
                             thread_pool& pool);

/// The named closed-loop scenarios the fig_suite CLI exposes
/// (fig9_closed_loop, fig10_adaptive, fleet, smoke).
std::vector<scenario_spec> builtin_scenarios();

}  // namespace mca::exp
