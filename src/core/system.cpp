#include "core/system.h"

#include <algorithm>
#include <stdexcept>

#include "net/operators.h"

namespace mca::core {

namespace {
/// "Initially, each user is located in the lowest acceleration group".
constexpr group_id kInitialGroup = 1;
}  // namespace

std::optional<double> system_metrics::mean_prediction_accuracy() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& s : slots) {
    if (s.accuracy) {
      total += *s.accuracy;
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return total / static_cast<double>(n);
}

std::vector<double> system_metrics::user_response_series(user_id user) const {
  std::vector<double> series;
  if (user >= requests_by_user.size()) return series;
  for (const std::uint32_t i : requests_by_user[user]) {
    if (requests[i].success) series.push_back(requests[i].response_ms);
  }
  return series;
}

std::vector<group_id> system_metrics::user_group_series(user_id user) const {
  std::vector<group_id> series;
  if (user >= requests_by_user.size()) return series;
  for (const std::uint32_t i : requests_by_user[user]) {
    if (requests[i].success) series.push_back(requests[i].group);
  }
  return series;
}

offloading_system::offloading_system(system_config config,
                                     const tasks::task_pool& pool)
    : config_{std::move(config)}, pool_{pool}, rng_{config_.seed},
      background_rng_{config_.seed ^ 0xbadc0ffeULL} {
  if (config_.groups.empty()) {
    throw std::invalid_argument{"system: no backend groups"};
  }
  if (!config_.tasks || !config_.gaps) {
    throw std::invalid_argument{"system: task source and gaps are required"};
  }
  if (config_.user_count == 0) {
    throw std::invalid_argument{"system: zero users"};
  }
  // The SDN reads its resilience knobs from the fault program itself; the
  // instances take only the program's cold-start median.
  cloud::instance::options instance_options;
  if (config_.faults.active()) {
    instance_options.cold_start_mean_ms = config_.faults.cold_start_mean_ms;
  }

  group_id max_group = kInitialGroup;
  for (const auto& spec : config_.groups) {
    max_group = std::max(max_group, spec.group);
  }
  group_count_ = max_group + 1;

  // Resolve every backend's catalog type once, at construction.
  spec_types_.reserve(config_.groups.size());
  for (const auto& spec : config_.groups) {
    spec_types_.push_back(&cloud::type_by_name(spec.type_name));
  }

  backend_ = std::make_unique<cloud::backend_pool>(sim_, rng_.fork(),
                                                   instance_options);
  for (std::size_t i = 0; i < config_.groups.size(); ++i) {
    const auto& spec = config_.groups[i];
    for (std::size_t n = 0; n < spec.initial_count; ++n) {
      backend_->launch(spec.group, *spec_types_[i]);
    }
  }

  sdn_ = std::make_unique<sdn_accelerator>(
      sim_, *backend_,
      config_.mobile_link ? *config_.mobile_link : net::default_lte_model(),
      /*log=*/nullptr, config_.sdn, rng_.fork(), config_.faults);
  sdn_->set_response_sink(this);

  moderator_ = std::make_unique<client::moderator>(
      config_.promotion_probability, kInitialGroup, max_group,
      config_.user_count, rng_.fork());

  metrics_.observability.resize_groups(group_count_);
  backend_->set_observability(&metrics_.observability);
  sdn_->set_observability(&metrics_.observability, config_.trace_sink,
                          config_.trace_ring, config_.trace_sample_every);

  evidence_ = trace::slot_accumulator{group_count_, config_.user_count,
                                      config_.slot_length};

  metrics_.digest.group_response.resize(group_count_);
  if (config_.record_request_series) {
    metrics_.requests_by_user.resize(config_.user_count);
  }

  predictor_ = workload_predictor{config_.predictor_mode};
}

// Request ingress, response egress and the trace point run once per
// simulated request — the busiest call sites in a monolithic run.
// Member-vector growth (the raw series under record_request_series) is
// amortized and allowed; locals must not allocate, and the slot evidence
// is a bit set in preallocated bitsets.
// mca:hot-path-begin(response-digest)
void offloading_system::handle_request(
    const workload::offload_request& request) {
  // No log is attached, so the battery level goes nowhere: a full one.
  sdn_->submit(request, moderator_->group_of(request.user), 1.0);
}

void offloading_system::on_response(const workload::offload_request& request,
                                    const request_timing& timing,
                                    group_id group) {
  if (timing.success) {
    moderator_->record_response(request.user);
  }
  const double response_ms = timing.total();

  // Streaming digest, fed in completion order — the same order (and hence
  // the same floating-point accumulation) as the raw-series scan it
  // replaces.  The per-group SLO histogram (preallocated) is the latency
  // distribution and the success count.
  if (timing.success) {
    metrics_.digest.response.add(response_ms);
    if (group < group_count_) {
      metrics_.digest.group_response[group].add(response_ms);
    }
    metrics_.observability.observe_response(group, response_ms);
  }

  if (config_.record_request_series) {
    request_metric metric;
    metric.id = request.id;
    metric.user = request.user;
    metric.group = group;
    metric.response_ms = response_ms;
    metric.issued_at = request.created_at;
    metric.success = timing.success;
    if (metric.user < metrics_.requests_by_user.size()) {
      metrics_.requests_by_user[metric.user].push_back(
          static_cast<std::uint32_t>(metrics_.requests.size()));
    }
    metrics_.requests.push_back(metric);
  }
}

void offloading_system::on_trace(util::time_ms logged_at,
                                 util::time_ms created_at, user_id user,
                                 group_id group) {
  // Mirrors the retired slot_from_log scan: a request counts toward the
  // slot its creation time falls in, and only if it was logged before
  // that slot's boundary.  A boundary at exactly logged_at excludes it,
  // as event order would: the boundary is scheduled a slot ahead.
  evidence_.record(logged_at, created_at, user, group);
}
// mca:hot-path-end

void offloading_system::inject_background() {
  for (const auto& spec : config_.groups) {
    backend_->for_each_accepting(spec.group, [&](cloud::instance& server) {
      for (std::size_t i = 0; i < config_.background_requests_per_burst; ++i) {
        const auto work = pool_.random_request(background_rng_).work_units();
        if (server.submit(work)) ++metrics_.background_submitted;
      }
    });
  }
}

void offloading_system::apply_plan(const allocation_plan& plan) {
  for (std::size_t i = 0; i < config_.groups.size(); ++i) {
    const auto& spec = config_.groups[i];
    // A group under an injected outage takes no provisioning actions:
    // launching into a dead zone would silently undo the fault, and its
    // instances are already draining.  restore_group() re-aims it when
    // the outage lifts.
    if (!backend_->group_available(spec.group)) continue;
    const std::size_t want = plan.count_of(spec.group, spec.type_name);
    const std::size_t have =
        backend_->instance_count(spec.group, spec.type_name);
    if (want > have) {
      for (std::size_t n = have; n < want; ++n) {
        backend_->launch(spec.group, *spec_types_[i]);
      }
    } else if (want < have) {
      backend_->retire(spec.group, *spec_types_[i], have - want);
    }
  }
  // Remember the applied plan so an outage that lifts mid-slot can
  // restore the group to its planned size instead of waiting a full slot.
  if (config_.faults.active()) last_plan_ = plan;
}

void offloading_system::apply_preemption(std::size_t index) {
  const fault::preemption_event& ev = config_.preemption_schedule[index];
  const auto result = backend_->preempt_in(ev.group, ev.ordinal);
  if (!result.applied) return;  // struck an already-empty group
  metrics_.observability.add(obs::counter::fault_preemptions);
  metrics_.observability.add(obs::counter::fault_inflight_killed,
                             result.killed);
}

void offloading_system::begin_outage(std::size_t index) {
  const fault::outage_window& w = config_.faults.outages[index];
  backend_->begin_outage(w.group);
  metrics_.observability.add(obs::counter::fault_outages);
}

void offloading_system::end_outage(std::size_t index) {
  const fault::outage_window& w = config_.faults.outages[index];
  backend_->end_outage(w.group);
  restore_group(w.group);
}

void offloading_system::restore_group(group_id group) {
  metrics_.observability.add(obs::counter::fault_recoveries);
  for (std::size_t i = 0; i < config_.groups.size(); ++i) {
    const auto& spec = config_.groups[i];
    if (spec.group != group) continue;
    // Target the last applied plan when there is one (external plans
    // included), the initial deployment otherwise.
    const std::size_t want = last_plan_
                                 ? last_plan_->count_of(spec.group,
                                                        spec.type_name)
                                 : spec.initial_count;
    const std::size_t have =
        backend_->instance_count(spec.group, spec.type_name);
    for (std::size_t n = have; n < want; ++n) {
      backend_->launch(spec.group, *spec_types_[i]);
    }
  }
}

void offloading_system::on_slot_boundary(std::size_t slot_index) {
  metrics_.observability.add(obs::counter::slot_boundaries);
  // Close the telemetry window that ends at this boundary before any
  // boundary work lands in the next one.  Background-only instances first
  // count the completions they owe the closing window; the snapshot
  // counter is bumped first so the closing window accounts for its own
  // close.
  backend_->settle();
  metrics_.observability.add(obs::counter::timeline_snapshots);
  timeline_.snapshot(metrics_.observability, slot_index, sim_.now());
  exemplars_.roll_window(static_cast<std::uint32_t>(slot_index));
  // The slot that just ended becomes evidence.
  trace::time_slot finished = evidence_.take();
  const auto actual_counts = finished.group_counts();

  // Score the forecast made one boundary ago.
  if (!metrics_.slots.empty()) {
    auto& previous = metrics_.slots.back();
    if (previous.predicted_counts) {
      previous.accuracy =
          prediction_accuracy(*previous.predicted_counts, actual_counts);
    }
  }

  slot_report report;
  report.slot_index = slot_index;
  report.actual_counts = actual_counts;

  predictor_.observe(std::move(finished));
  if (const trace::time_slot* forecast =
          predictor_.forecast(predictor_.history().back())) {
    const auto& predicted = report.predicted_counts.emplace(
        forecast->group_counts());
    if (config_.enable_adaptation) {
      allocation_plan plan = allocate_ilp(
          make_slot_allocation_request(config_, group_count_, predicted),
          &metrics_.observability);
      apply_plan(plan);
      report.plan = std::move(plan);
    }
  }
  metrics_.slots.push_back(std::move(report));
}

allocation_request make_slot_allocation_request(
    const system_config& config, std::size_t group_count,
    std::span<const std::size_t> predicted_counts) {
  allocation_request request;
  request.workload_per_group =
      demand_from_prediction(predicted_counts, group_count);
  request.candidates_per_group.assign(group_count, {});
  for (const auto& spec : config.groups) {
    const auto& type = cloud::type_by_name(spec.type_name);
    request.candidates_per_group[spec.group].push_back(
        {spec.type_name, spec.capacity_per_instance, type.cost_per_hour});
  }
  request.max_total_instances = config.max_total_instances;
  return request;
}

void offloading_system::begin(util::time_ms duration) {
  if (duration <= 0.0) throw std::invalid_argument{"run: duration <= 0"};
  if (started_) throw std::logic_error{"begin: already started"};
  started_ = true;
  duration_ = duration;

  workload::interarrival_config load;
  load.devices = config_.user_count;
  load.active_duration = duration;
  generator_ = std::make_unique<workload::interarrival_generator>(
      sim_, config_.tasks,
      [this](const workload::offload_request& r) { handle_request(r); },
      config_.gaps, load, rng_.fork());

  if (config_.background_requests_per_burst > 0) {
    background_ticker_ = std::make_unique<sim::periodic_process>(
        sim_, config_.background_burst_period, config_.background_burst_period,
        [this](std::uint64_t) {
          inject_background();
          return true;
        });
  }

  const auto total_slots = static_cast<std::size_t>(
      std::max(1.0, duration / config_.slot_length));
  slot_ticker_ = std::make_unique<sim::periodic_process>(
      sim_, config_.slot_length, config_.slot_length,
      [this, total_slots](std::uint64_t tick) {
        on_slot_boundary(static_cast<std::size_t>(tick));
        return tick + 1 < total_slots;
      });

  if (config_.faults.active()) {
    fault::validate(config_.faults, duration, "system");
    for (std::size_t i = 0; i < config_.preemption_schedule.size(); ++i) {
      const fault::preemption_event& ev = config_.preemption_schedule[i];
      if (ev.at >= duration) continue;
      sim_.schedule_at(ev.at, [this, i] { apply_preemption(i); });
    }
    for (std::size_t i = 0; i < config_.faults.outages.size(); ++i) {
      const fault::outage_window& w = config_.faults.outages[i];
      sim_.schedule_at(w.start_ms, [this, i] { begin_outage(i); });
      sim_.schedule_at(w.end_ms, [this, i] { end_outage(i); });
    }
  }

  // Time-resolved telemetry buffers, sized now that the slot count is
  // known: one window per boundary plus the drain tail.
  timeline_.reset(total_slots + 1, group_count_);
  if (config_.exemplar_top_k > 0) {
    exemplars_.reset(config_.exemplar_top_k, total_slots + 1);
    sdn_->set_exemplar_sink(&exemplars_);
  }
}

void offloading_system::advance_to(util::time_ms t) {
  if (!started_) throw std::logic_error{"advance_to: begin() first"};
  sim_.run_until(t);
  backend_->settle();
}

void offloading_system::finish() {
  if (!started_) throw std::logic_error{"finish: begin() first"};
  if (background_ticker_) background_ticker_->stop();
  if (slot_ticker_) slot_ticker_->stop();
  // Let in-flight requests complete so metrics cover the whole workload.
  sim_.run_until(duration_ + util::minutes(10.0));
  backend_->settle();

  // Close the drain-tail telemetry window (responses that completed after
  // the last boundary); its slot index is one past the last boundary's.
  metrics_.observability.add(obs::counter::timeline_snapshots);
  timeline_.snapshot(metrics_.observability, metrics_.slots.size(),
                     sim_.now());
  exemplars_.roll_window(static_cast<std::uint32_t>(metrics_.slots.size()));

  metrics_.promotions = moderator_->promotions();
  metrics_.total_cost_usd = util::to_usd(backend_->total_cost(sim_.now()));
}

void offloading_system::run(util::time_ms duration) {
  begin(duration);
  advance_to(duration);
  finish();
}

void offloading_system::apply_external_plan(const allocation_plan& plan) {
  if (metrics_.slots.empty()) {
    throw std::logic_error{"apply_external_plan: no slot boundary yet"};
  }
  apply_plan(plan);
  metrics_.slots.back().plan = plan;
}

}  // namespace mca::core
