#include "fault/fault_program.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace mca::fault {

std::vector<preemption_event> make_preemption_schedule(
    const fault_program& program, util::time_ms horizon, std::uint64_t seed) {
  std::vector<preemption_event> schedule;
  if (!program.active() || horizon <= 0.0) return schedule;
  for (group_id g = 0; g < program.preempt_hazard_per_hour.size(); ++g) {
    const double hazard = program.preempt_hazard_per_hour[g];
    if (hazard <= 0.0) continue;
    // One independent counter-split stream per group: the schedule never
    // depends on which other groups carry hazards or on draw order.
    util::rng stream = util::rng::split(seed ^ kFaultStreamTag, g);
    const double rate_per_ms = hazard / util::hours(1.0);
    util::time_ms at = 0.0;
    for (;;) {
      at += stream.exponential(rate_per_ms);
      if (at >= horizon) break;
      preemption_event event;
      event.at = at;
      event.group = g;
      event.ordinal = stream();
      schedule.push_back(event);
    }
  }
  // Time-sorted with (group) tiebreak, then globally sequenced: `seq` is
  // what shards slice on, so the global fault set is invariant under any
  // sharding of the same spec.
  std::sort(schedule.begin(), schedule.end(),
            [](const preemption_event& a, const preemption_event& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.group < b.group;
            });
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].seq = i;
  }
  return schedule;
}

void validate(const fault_program& program, util::time_ms horizon,
              const char* context) {
  if (!program.active()) return;
  const std::string prefix = std::string{context} + ": fault program ";
  auto reject = [&](const std::string& what) {
    throw std::invalid_argument{prefix + what};
  };
  for (std::size_t g = 0; g < program.preempt_hazard_per_hour.size(); ++g) {
    if (program.preempt_hazard_per_hour[g] < 0.0) {
      reject("preempt_hazard_per_hour[" + std::to_string(g) +
             "] is negative (" +
             std::to_string(program.preempt_hazard_per_hour[g]) +
             "); hazards are expected preemptions per hour, >= 0");
    }
  }
  for (std::size_t i = 0; i < program.outages.size(); ++i) {
    const outage_window& w = program.outages[i];
    if (w.end_ms <= w.start_ms) {
      reject("outages[" + std::to_string(i) + "] is empty or inverted (" +
             std::to_string(w.start_ms) + " ms .. " +
             std::to_string(w.end_ms) + " ms)");
    }
    if (w.start_ms < 0.0 || w.end_ms > horizon) {
      reject("outages[" + std::to_string(i) +
             "] lies outside the scenario duration (" +
             std::to_string(w.start_ms) + " ms .. " +
             std::to_string(w.end_ms) + " ms vs horizon " +
             std::to_string(horizon) + " ms)");
    }
  }
  if (program.cold_start_mean_ms < 0.0) {
    reject("cold_start_mean_ms is negative");
  }
  if (program.request_timeout_ms < 0.0) {
    reject("request_timeout_ms is negative (use 0 to disable the timer)");
  }
  if (program.retry_backoff_base_ms < 0.0 ||
      program.retry_backoff_cap_ms < 0.0) {
    reject("retry backoff base/cap must be >= 0");
  }
  if (program.retry_backoff_cap_ms < program.retry_backoff_base_ms) {
    reject("retry_backoff_cap_ms (" +
           std::to_string(program.retry_backoff_cap_ms) +
           ") is below retry_backoff_base_ms (" +
           std::to_string(program.retry_backoff_base_ms) + ")");
  }
  if (program.max_retries == 0 && !program.local_fallback) {
    reject(
        "max_retries is 0 with local_fallback disabled: a single timeout "
        "or preemption would hard-fail the request; allow at least one "
        "retry or enable the fallback");
  }
  if (program.local_fallback && program.local_exec_wu_per_ms <= 0.0) {
    reject("local_exec_wu_per_ms must be > 0 when local_fallback is on");
  }
}

std::vector<obs::span_record> fault_spans(
    const fault_program& program, std::span<const preemption_event> schedule) {
  std::vector<obs::span_record> spans;
  spans.reserve(program.outages.size() + schedule.size());
  for (const outage_window& w : program.outages) {
    obs::span_record span;
    span.sim_start_ms = w.start_ms;
    span.sim_dur_ms = w.end_ms - w.start_ms;
    span.arg_a = w.group;
    span.arg_b = static_cast<std::uint64_t>(fault_kind::outage_begin);
    span.kind = obs::span_kind::fault_window;
    spans.push_back(span);
  }
  for (const preemption_event& ev : schedule) {
    obs::span_record span;
    span.sim_start_ms = ev.at;
    span.sim_dur_ms = 0.0;
    span.arg_a = ev.group;
    span.arg_b = static_cast<std::uint64_t>(fault_kind::preemption);
    span.kind = obs::span_kind::fault_window;
    spans.push_back(span);
  }
  return spans;
}

}  // namespace mca::fault
