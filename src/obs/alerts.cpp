#include "obs/alerts.h"

#include <algorithm>

#include "obs/fnv.h"
#include "util/histogram.h"

namespace mca::obs {
namespace {

constexpr const char* kAlertKindNames[kAlertKindCount] = {
    "latency_p99",
    "error_rate",
};

/// The objective's value over timeline windows [first, last]: windowed
/// p99 from the merged in-scope SLO bins, or the windowed failure
/// fraction.  Empty scopes evaluate to 0 (healthy).
double windowed_value(const timeline& tl, const slo_objective& obj,
                      std::size_t first, std::size_t last) {
  if (obj.kind == alert_kind::error_rate) {
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    for (std::size_t i = first; i <= last; ++i) {
      const timeline_window& w = tl.window(i);
      requests += w.delta(counter::sdn_requests);
      failures += w.delta(counter::sdn_failures);
    }
    return requests == 0
               ? 0.0
               : static_cast<double>(failures) / static_cast<double>(requests);
  }
  util::histogram merged;
  for (std::size_t i = first; i <= last; ++i) {
    const timeline_window& w = tl.window(i);
    if (obj.group == kAllGroups) {
      for (std::size_t g = 0; g < w.slo_groups(); ++g) w.add_slo(g, merged);
    } else if (obj.group < w.slo_groups()) {
      w.add_slo(obj.group, merged);
    }
  }
  return merged.total() == 0 ? 0.0 : merged.quantile_interpolated(0.99);
}

double effective_threshold(const slo_objective& obj) noexcept {
  return obj.kind == alert_kind::error_rate ? obj.threshold * obj.burn_rate
                                            : obj.threshold;
}

}  // namespace

const char* alert_kind_name(alert_kind k) noexcept {
  return kAlertKindNames[static_cast<std::size_t>(k)];
}

std::uint64_t alert_report::fingerprint() const noexcept {
  fnv_state fnv;
  fnv.word(static_cast<std::uint64_t>(events.size()));
  for (const alert_event& e : events) {
    fnv.word(static_cast<std::uint64_t>(e.objective));
    fnv.word(e.slot);
    fnv.word(e.fired ? 1 : 0);
  }
  return fnv.hash;
}

alert_report evaluate_alerts(const timeline& tl,
                             const std::vector<slo_objective>& objectives) {
  alert_report report;
  report.objectives = objectives;
  report.active.assign(objectives.size(), false);
  // Walk windows outermost so events come out in (window, objective)
  // order — the order they would fire in simulated time.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const timeline_window& closing = tl.window(i);
    for (std::size_t o = 0; o < objectives.size(); ++o) {
      const slo_objective& obj = objectives[o];
      const std::size_t short_span = std::max<std::size_t>(obj.short_windows, 1);
      const std::size_t long_span = std::max<std::size_t>(obj.long_windows, 1);
      const std::size_t short_first = i + 1 >= short_span ? i + 1 - short_span : 0;
      const std::size_t long_first = i + 1 >= long_span ? i + 1 - long_span : 0;
      const double short_value = windowed_value(tl, obj, short_first, i);
      const double long_value = windowed_value(tl, obj, long_first, i);
      const double threshold = effective_threshold(obj);
      const bool breach = short_value > threshold && long_value > threshold;
      if (breach == report.active[o]) continue;
      alert_event event;
      event.objective = o;
      event.slot = closing.slot;
      event.sim_ms = closing.sim_end_ms;
      event.fired = breach;
      event.short_value = short_value;
      event.long_value = long_value;
      report.events.push_back(event);
      report.active[o] = breach;
      if (breach) {
        ++report.fires;
      } else {
        ++report.clears;
      }
    }
  }
  return report;
}

std::vector<slo_objective> default_fleet_objectives(std::size_t group_count,
                                                    double p99_ceiling_ms,
                                                    double error_budget) {
  std::vector<slo_objective> objectives;
  objectives.reserve(group_count + 2);
  slo_objective fleet_latency;
  fleet_latency.name = "fleet_p99_latency";
  fleet_latency.kind = alert_kind::latency_p99;
  fleet_latency.threshold = p99_ceiling_ms;
  objectives.push_back(fleet_latency);
  slo_objective fleet_errors;
  fleet_errors.name = "fleet_error_budget";
  fleet_errors.kind = alert_kind::error_rate;
  fleet_errors.threshold = error_budget;
  objectives.push_back(fleet_errors);
  for (std::size_t g = 0; g < group_count; ++g) {
    slo_objective per_group;
    per_group.name = "group" + std::to_string(g) + "_p99_latency";
    per_group.kind = alert_kind::latency_p99;
    per_group.group = static_cast<std::uint32_t>(g);
    per_group.threshold = p99_ceiling_ms;
    objectives.push_back(per_group);
  }
  return objectives;
}

std::vector<span_record> alert_spans(const alert_report& report,
                                     const timeline& tl) {
  std::vector<span_record> spans;
  const double horizon_ms =
      tl.size() == 0 ? 0.0 : tl.window(tl.size() - 1).sim_end_ms;
  // Pair each fire with the matching clear (events are time-ordered, so
  // the next edge for the same objective is always the clear).
  std::vector<double> fire_at(report.objectives.size(), -1.0);
  std::vector<std::uint64_t> fire_slot(report.objectives.size(), 0);
  for (const alert_event& e : report.events) {
    if (e.fired) {
      fire_at[e.objective] = e.sim_ms;
      fire_slot[e.objective] = e.slot;
      continue;
    }
    span_record span;
    span.sim_start_ms = fire_at[e.objective];
    span.sim_dur_ms = e.sim_ms - fire_at[e.objective];
    span.arg_a = e.objective;
    span.arg_b = fire_slot[e.objective];
    span.kind = span_kind::slo_alert;
    spans.push_back(span);
    fire_at[e.objective] = -1.0;
  }
  for (std::size_t o = 0; o < fire_at.size(); ++o) {
    if (fire_at[o] < 0.0) continue;
    span_record span;
    span.sim_start_ms = fire_at[o];
    span.sim_dur_ms = horizon_ms > fire_at[o] ? horizon_ms - fire_at[o] : 0.0;
    span.arg_a = o;
    span.arg_b = fire_slot[o];
    span.kind = span_kind::slo_alert;
    spans.push_back(span);
  }
  return spans;
}

}  // namespace mca::obs
