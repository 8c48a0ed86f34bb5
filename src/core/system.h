// The end-to-end deployment: workload → moderator → SDN-accelerator →
// acceleration groups, closed by the adaptive model.
//
// This is the harness behind the paper's §VI-C experiments (Fig. 9/10):
// a population of devices issues offloading requests following a
// trace-driven inter-arrival process; each device's moderator decides its
// acceleration group (promotions); the SDN front-end routes and traces; and
// at every provisioning-slot boundary the predictor forecasts the next
// slot's per-group workload and the ILP allocator reshapes the fleet —
// all against hourly billing and the account instance cap.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "client/moderator.h"
#include "cloud/backend_pool.h"
#include "core/allocator.h"
#include "core/predictor.h"
#include "core/sdn_accelerator.h"
#include "fault/fault_program.h"
#include "net/rtt_model.h"
#include "obs/exemplar.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/tracer.h"
#include "sim/simulation.h"
#include "tasks/task.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace mca::core {

/// One acceleration group's backing in the deployment (Fig. 9a style:
/// group 1 = t2.nano, group 2 = t2.large, group 3 = m4.4xlarge).
struct group_backend_spec {
  group_id group = 1;
  std::string type_name;
  std::size_t initial_count = 1;
  /// Ks for the allocator: users one instance carries under the bound
  /// (from the classifier's characterization).
  double capacity_per_instance = 10.0;
};

/// Full experiment description.  Users start in group 1 (kInitialGroup,
/// a constant of the deployment in system.cpp).
struct system_config {
  std::vector<group_backend_spec> groups;

  // --- workload ---
  std::size_t user_count = 100;
  workload::task_source tasks;        ///< required
  workload::interarrival_fn gaps;     ///< required

  // --- promotion ---
  /// Chance that a successful response promotes its user one group
  /// (client::moderator); the paper's §VI-C value by default.
  double promotion_probability = 1.0 / 50.0;

  // --- adaptive model ---
  /// Solve and apply the slot-boundary allocation.  Off, boundaries still
  /// forecast into slot_report::predicted_counts; an owner that provisions
  /// from outside (fleet::shard) reads that forecast after advancing to
  /// the boundary and answers with apply_external_plan().
  bool enable_adaptation = true;
  util::time_ms slot_length = util::hours(1);
  std::size_t max_total_instances = 20;  ///< CC
  prediction_mode predictor_mode = prediction_mode::successor;

  /// Keep the raw per-request metric series (system_metrics::requests and
  /// the per-user index behind user_response_series).  The streaming
  /// digest is always maintained; the raw series costs one push_back and
  /// ~56 bytes per request, so fleet-scale runs turn it off
  /// (exp::run_scenario and fleet shards run with it off; figure benches
  /// that plot per-request series keep it on).
  bool record_request_series = true;

  // --- induced background load (§VI-C.1) ---
  /// Requests injected into every back-end server per burst.
  std::size_t background_requests_per_burst = 50;
  util::time_ms background_burst_period = util::seconds(2);

  // --- observability ---
  // The preregistered obs counters (SDN request pipeline, PS backend, slot
  // boundaries) and the per-slot timeline windows are always on: the
  // registry is owned and preallocated by the system, and the timeline is
  // sized in begin() once the slot count is known.
  /// Tail-exemplar reservoir size: the K slowest request lifecycles per
  /// slot window, captured at the response sink (0 disables).
  std::size_t exemplar_top_k = 4;
  /// Optional span tracer (not owned; must outlive the system).  When
  /// set, 1 in `trace_sample_every` requests records a lifecycle span
  /// into `trace_sink->ring(trace_ring)`.
  obs::tracer* trace_sink = nullptr;
  std::size_t trace_ring = 0;
  std::size_t trace_sample_every = 1024;

  // --- fault injection & resilience (src/fault) ---
  /// Inert by default (enabled == false): no fault events are scheduled,
  /// no extra rng draws happen anywhere, and pre-fault goldens reproduce
  /// bit-exactly.  When enabled, the SDN reads the program's resilience
  /// knobs directly and the instances take its cold-start median — the
  /// program is the single source of truth.
  fault::fault_program faults;
  /// Precomputed preemption strikes (fault::make_preemption_schedule);
  /// exp::make_system_config fills this from the program, fleet shards
  /// receive their seq-sliced share.  Ignored unless `faults.enabled`.
  std::vector<fault::preemption_event> preemption_schedule;

  // --- plumbing ---
  sdn_config sdn;
  /// Mobile <-> front-end link; defaults to the paper's assumption
  /// (operator beta's calibrated LTE).  Supply a 3G model to study the
  /// §VI-C.4 technology gap end to end.
  std::optional<net::rtt_model> mobile_link;
  std::uint64_t seed = 7;
};

/// One completed (or failed) foreground request.
struct request_metric {
  request_id id = 0;
  user_id user = 0;
  group_id group = 0;
  double response_ms = 0.0;
  util::time_ms issued_at = 0.0;
  bool success = false;
};

/// Outcome of one provisioning slot.
struct slot_report {
  std::size_t slot_index = 0;
  std::vector<std::size_t> actual_counts;  ///< users per group, observed
  std::optional<std::vector<std::size_t>> predicted_counts;
  std::optional<double> accuracy;  ///< prediction vs next slot's actual
  std::optional<allocation_plan> plan;
};

/// Streaming response-time moments, maintained on the response path in
/// completion order — exactly the floating-point accumulation a scan of
/// the raw series would make.  Unconditional (and cheap), so fleet-scale
/// runs need no per-request storage at all.  The counts and the latency
/// histogram behind them live in system_metrics::observability
/// (sdn_successes / sdn_failures and the per-group SLO histograms).
struct request_digest {
  util::running_stats response;                     ///< successful responses
  std::vector<util::running_stats> group_response;  ///< by routed group
};

/// Aggregated run results.
struct system_metrics {
  /// Raw per-request series; filled only under record_request_series.
  std::vector<request_metric> requests;
  /// Per-user indices into `requests` (same flag) — user series lookups
  /// are O(own requests), not O(all requests).  A request's position in
  /// its user's list is its per-user sequence number.
  std::vector<std::vector<std::uint32_t>> requests_by_user;
  request_digest digest;
  /// The run's observability registry: the preregistered counters (SDN
  /// request pipeline, PS backend, ILP, slot boundaries, faults), value
  /// series and per-group SLO latency histograms.  Wired into the backend
  /// pool and the SDN at construction.
  obs::registry observability;
  std::vector<slot_report> slots;
  std::uint64_t promotions = 0;
  std::uint64_t background_submitted = 0;
  double total_cost_usd = 0.0;

  /// Mean accuracy over slots that had both a prediction and an outcome.
  std::optional<double> mean_prediction_accuracy() const;
  /// All response times of successful requests for one user, in order.
  /// Requires the raw series (empty otherwise).
  std::vector<double> user_response_series(user_id user) const;
  /// The group each successful request of a user ran in, in order.
  /// Requires the raw series (empty otherwise).
  std::vector<group_id> user_group_series(user_id user) const;
};

/// Owns the whole simulated deployment.
class offloading_system : private response_sink {
 public:
  /// Validates the config (groups present, callbacks set, promotion
  /// probability in [0, 1]).
  /// Throws std::invalid_argument on a malformed config.
  offloading_system(system_config config, const tasks::task_pool& pool);

  /// Runs the experiment for `duration` of simulated time.
  void run(util::time_ms duration);

  /// The incremental form of run(), for owners that must interleave with
  /// the event loop at provisioning-slot boundaries (fleet::shard):
  /// begin() installs the workload and ticker processes, advance_to() runs
  /// the loop forward to an absolute simulated time and settles the
  /// back-end through it (backend_pool::settle), finish() drains
  /// in-flight requests past the horizon and fills the run totals.
  /// run(d) == begin(d); advance_to(d); finish().
  /// begin() throws std::invalid_argument on a non-positive duration and
  /// std::logic_error when called twice.
  void begin(util::time_ms duration);
  void advance_to(util::time_ms t);
  void finish();

  /// Applies an externally solved plan (the shard's fleet quota) and
  /// records it in the current slot report.
  /// Throws std::logic_error before the first slot boundary.
  void apply_external_plan(const allocation_plan& plan);

  const system_config& config() const noexcept { return config_; }
  const system_metrics& metrics() const noexcept { return metrics_; }
  cloud::backend_pool& backend() noexcept { return *backend_; }
  const workload_predictor& predictor() const noexcept { return predictor_; }
  sim::simulation& simulation() noexcept { return sim_; }
  std::size_t group_count() const noexcept { return group_count_; }
  /// The run's observability registry (system_metrics::observability).
  const obs::registry& observability() const noexcept {
    return metrics_.observability;
  }
  /// Per-slot telemetry windows (empty before begin()).
  const obs::timeline& timeline() const noexcept { return timeline_; }
  /// Tail exemplars flushed so far (disabled when exemplar_top_k == 0).
  const obs::exemplar_reservoir& exemplars() const noexcept {
    return exemplars_;
  }

 private:
  void handle_request(const workload::offload_request& request);
  /// response_sink: the single handler of every SDN response.
  void on_response(const workload::offload_request& request,
                   const request_timing& timing, group_id group) override;
  /// response_sink's trace point: sets (group, user) in the current slot
  /// window's evidence bitsets — the predictor's input — without keeping
  /// a request log.  Fires at the back-end completion; `logged_at`
  /// decides the window.
  void on_trace(util::time_ms logged_at, util::time_ms created_at,
                user_id user, group_id group) override;
  void on_slot_boundary(std::size_t slot_index);
  void inject_background();
  void apply_plan(const allocation_plan& plan);
  // Fault-program event handlers (scheduled in begin() when enabled).
  void apply_preemption(std::size_t index);
  void begin_outage(std::size_t index);
  void end_outage(std::size_t index);
  /// Relaunches a recovered group to its last planned (or initial) size.
  void restore_group(group_id group);

  system_config config_;
  const tasks::task_pool& pool_;
  std::size_t group_count_ = 0;

  sim::simulation sim_;
  util::rng rng_;
  std::unique_ptr<cloud::backend_pool> backend_;
  std::unique_ptr<sdn_accelerator> sdn_;
  std::unique_ptr<client::moderator> moderator_;
  workload_predictor predictor_;

  std::unique_ptr<workload::interarrival_generator> generator_;
  std::unique_ptr<sim::periodic_process> slot_ticker_;
  std::unique_ptr<sim::periodic_process> background_ticker_;

  /// Per-group backends resolved once (type_by_name) so no provisioning
  /// path searches the catalog per slot, let alone per request.
  std::vector<const cloud::instance_type*> spec_types_;

  /// The current slot window's evidence: one bit per (group, user),
  /// turned into an exact-size time_slot at each boundary.
  trace::slot_accumulator evidence_;

  util::rng background_rng_;
  system_metrics metrics_;

  obs::timeline timeline_;
  obs::exemplar_reservoir exemplars_;

  util::time_ms duration_ = 0.0;
  bool started_ = false;
  /// The most recently applied plan (internal or external) — what
  /// restore_group() re-applies when an outage lifts mid-slot.
  std::optional<allocation_plan> last_plan_;
};

/// The slot-boundary allocation request implied by a deployment's group
/// backends and a predicted per-group load — one code path shared by
/// offloading_system's internal adaptation, which hands it to allocate_ilp
/// at every boundary, and the fleet coordinator's model shape (demand
/// derivation itself lives in core::demand_from_prediction, which the
/// fleet's demand digests call directly).
allocation_request make_slot_allocation_request(
    const system_config& config, std::size_t group_count,
    std::span<const std::size_t> predicted_counts);

}  // namespace mca::core
