// fault — deterministic fault-injection programs for the backend fleet.
//
// A `fault_program` rides on `exp::scenario_spec` and describes, as pure
// data, the availability hazards a run injects: spot-style instance
// preemption (per-group hazard rates), scheduled zone/region outage
// windows that drain a whole acceleration group at once, and cold-start
// delays paid between `backend_pool::launch` and first-accept.  It also
// carries the resilience knobs the offload path uses to survive those
// hazards: per-request timeout, capped exponential backoff retry budget,
// and the local-execution fallback used after retry exhaustion, which
// `core::sdn_accelerator` reads from the program directly.
//
// Everything here is deterministic by construction.  The preemption
// schedule is expanded ahead of time by `make_preemption_schedule` — a
// pure function of (program, horizon, seed) that draws each group's
// hazard process from its own counter-split rng stream — so the same
// spec yields the same fault trace regardless of thread count, shard
// count, or event interleaving.  Shards slice the shared schedule by
// `seq % shard_count`, which keeps the monolith and any sharding of the
// same spec injecting the same global fault set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/tracer.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::fault {

/// Stream tag xor-ed into the scenario seed before counter-splitting per
/// group, so fault draws never alias workload or study streams.
inline constexpr std::uint64_t kFaultStreamTag = 0xfa017'de7ec7ULL;

/// One scheduled availability gap: the group's backends drain at
/// `start_ms` and the group accepts no new launches until `end_ms`.
struct outage_window {
  group_id group = 0;          ///< dense group index (0-based)
  util::time_ms start_ms = 0;  ///< outage begin (sim time)
  util::time_ms end_ms = 0;    ///< outage end; must be > start_ms
};

/// The full fault/resilience description carried by a scenario.
///
/// `enabled == false` (the default) must be byte-for-byte inert: no rng
/// stream is consumed, no event is scheduled, and every golden
/// fingerprint recorded before this subsystem existed is reproduced
/// exactly.
struct fault_program {
  bool enabled = false;

  // ---- hazards -----------------------------------------------------------
  /// Per-group spot preemption hazard (expected preemptions per hour of
  /// sim time, per group).  Groups beyond the vector's size get 0.
  std::vector<double> preempt_hazard_per_hour;
  /// Scheduled whole-group outages.
  std::vector<outage_window> outages;
  /// Cold-start delay between launch and first-accept, lognormal with
  /// median `cold_start_mean_ms` (shape 0.4, see cloud::instance); 0
  /// disables (and draws nothing from the instance stream).
  double cold_start_mean_ms = 0.0;

  // ---- resilience --------------------------------------------------------
  /// Retry attempts after the first try fails or times out.
  std::size_t max_retries = 2;
  /// Per-attempt timeout; <= 0 disables the timeout timer.
  double request_timeout_ms = 10'000.0;
  /// Capped exponential backoff: attempt k waits
  /// min(cap, base * 2^(k-1)) * (0.5 + u), u ~ U[0,1).
  double retry_backoff_base_ms = 200.0;
  double retry_backoff_cap_ms = 2'000.0;
  /// After retry exhaustion, execute on the local device instead of
  /// failing outright (acceptance degrades instead of cliffing).
  bool local_fallback = true;
  /// Local device throughput used for the fallback execution time:
  /// work_units / local_exec_wu_per_ms milliseconds per request.
  double local_exec_wu_per_ms = 0.005;

  bool active() const noexcept { return enabled; }
};

/// One expanded preemption: at time `at`, kill accepting instance
/// `ordinal % live` of group `group`.  `seq` is the global order index
/// used to slice the schedule across shards deterministically.
struct preemption_event {
  util::time_ms at = 0;
  group_id group = 0;
  std::uint64_t ordinal = 0;  ///< victim selector within the group
  std::uint64_t seq = 0;      ///< global order index (assigned sorted)
};

/// Expands the per-group hazard processes into a single time-sorted
/// schedule over [0, horizon).  Pure function of its arguments: the same
/// (program, horizon, seed) triple yields the same schedule on any
/// thread or shard layout.  Returns empty when the program is disabled.
std::vector<preemption_event> make_preemption_schedule(
    const fault_program& program, util::time_ms horizon, std::uint64_t seed);

/// Validates a fault program against the scenario horizon; throws
/// std::invalid_argument with an actionable message on nonsense
/// (negative hazard rates, outage windows outside [0, horizon] or
/// inverted, zero retry budget with fallback disabled, non-positive
/// fallback throughput).  `context` prefixes messages, e.g. the
/// scenario name.  No-op when the program is disabled.
void validate(const fault_program& program, util::time_ms horizon,
              const char* context);

/// Fault event taxonomy for trace lanes (a span's arg_b).
enum class fault_kind : std::uint8_t {
  preemption,    ///< spot instance killed mid-flight
  outage_begin,  ///< group drained, launches refused (the outage window)
};

/// Builds the "fault windows" trace-lane spans from a program and its
/// expanded schedule: one sim-time span per outage window and one
/// zero-length marker per preemption strike (arg_a = group, arg_b = the
/// fault_kind).  Post-run, pure — pairs with obs::trace_lane for export
/// next to the alert and exemplar lanes.
std::vector<obs::span_record> fault_spans(
    const fault_program& program, std::span<const preemption_event> schedule);

}  // namespace mca::fault
