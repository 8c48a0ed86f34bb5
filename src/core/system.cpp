#include "core/system.h"

#include <algorithm>
#include <stdexcept>

#include "net/operators.h"

namespace mca::core {

namespace {
/// "Initially, each user is located in the lowest acceleration group".
constexpr group_id kInitialGroup = 1;
/// Device hardware mix, cycled over users.
constexpr client::device_class kDeviceMix[] = {
    client::device_class::flagship, client::device_class::midrange,
    client::device_class::budget, client::device_class::wearable};
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
  if (user < requests_by_user.size()) {
    for (const std::uint32_t i : requests_by_user[user]) {
      if (requests[i].success) series.push_back(requests[i].response_ms);
    }
    return series;
  }
  // Metrics assembled by hand (tests) may carry a raw series without the
  // index; fall back to the linear scan.
  for (const auto& r : requests) {
    if (r.user == user && r.success) series.push_back(r.response_ms);
  }
  return series;
}

std::vector<group_id> system_metrics::user_group_series(user_id user) const {
  std::vector<group_id> series;
  if (user < requests_by_user.size()) {
    for (const std::uint32_t i : requests_by_user[user]) {
      if (requests[i].success) series.push_back(requests[i].group);
    }
    return series;
  }
  for (const auto& r : requests) {
    if (r.user == user && r.success) series.push_back(r.group);
  }
  return series;
}

offloading_system::offloading_system(system_config config,
                                     const tasks::task_pool& pool)
    : config_{std::move(config)}, pool_{pool}, rng_{config_.seed},
      devices_{config_.user_count == 0 ? 1 : config_.user_count, kDeviceMix},
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
  cloud::instance::options instance_options;
  if (config_.faults.active()) {
    // The fault program is the single source of truth for the resilience
    // knobs: map it onto the SDN retry path and the instance cold-start
    // before either component is constructed.
    config_.sdn.max_retries = config_.faults.max_retries;
    config_.sdn.request_timeout_ms = config_.faults.request_timeout_ms;
    config_.sdn.retry_backoff_base_ms = config_.faults.retry_backoff_base_ms;
    config_.sdn.retry_backoff_cap_ms = config_.faults.retry_backoff_cap_ms;
    config_.sdn.local_fallback = config_.faults.local_fallback;
    config_.sdn.local_exec_wu_per_ms = config_.faults.local_exec_wu_per_ms;
    instance_options.cold_start_mean_ms = config_.faults.cold_start_mean_ms;
    instance_options.cold_start_sigma = config_.faults.cold_start_sigma;
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
      /*log=*/nullptr, config_.sdn, rng_.fork());
  sdn_->set_response_sink(this);
  sdn_->set_trace_observer([this](util::time_ms logged_at,
                                  util::time_ms created_at, user_id user,
                                  group_id group) {
    on_trace(logged_at, created_at, user, group);
  });

  auto policy = config_.policy_factory
                    ? config_.policy_factory()
                    : std::make_unique<client::static_probability_promotion>();
  moderator_ = std::make_unique<client::moderator>(
      std::move(policy), kInitialGroup, max_group, rng_.fork(),
      config_.allow_demotion);

  obs_.resize_groups(group_count_);
  obs_.set_gauge(obs::gauge::groups, group_count_);
  backend_->set_observability(&obs_);
  sdn_->set_observability(&obs_, config_.trace_sink, config_.trace_ring,
                          config_.trace_sample_every);

  user_seq_.assign(config_.user_count, 0);

  slot_users_.resize(group_count_);
  slot_window_start_ = 0.0;
  slot_window_end_ = config_.slot_length;

  metrics_.digest.group_response.resize(group_count_);
  metrics_.digest.group_successes.assign(group_count_, 0);
  if (config_.record_request_series) {
    metrics_.requests_by_user.resize(config_.user_count);
  }

  predictor_ = workload_predictor{config_.predictor_mode};

  if (config_.enable_adaptation && !config_.external_allocation) {
    allocator_.emplace(make_slot_allocation_request(config_, group_count_, {}));
    allocator_->set_observability(&obs_);
  }
}

// Request ingress and response egress run once per simulated request —
// the two busiest call sites in a monolithic run.  Member-vector growth
// (the raw series under record_request_series) is amortized and allowed;
// locals must not allocate.
// mca:hot-path-begin(response-digest)
void offloading_system::handle_request(
    const workload::offload_request& request) {
  const group_id group = moderator_->group_of(request.user);
  const double battery = devices_.battery(request.user % devices_.size());
  sdn_->submit(request, group, battery);
}

void offloading_system::on_response(const workload::offload_request& request,
                                    const request_timing& timing,
                                    group_id group) {
  const user_id device = request.user % devices_.size();
  devices_.account_offload(device, timing.total());
  if (timing.success) {
    moderator_->record_response(request.user, timing.total(),
                                devices_.battery(device));
  }
  const double response_ms = timing.total();

  // Streaming digest, fed in completion order — the same order (and hence
  // the same floating-point accumulation) as the raw-series scan it
  // replaces.
  auto& digest = metrics_.digest;
  ++digest.issued;
  if (timing.success) {
    ++digest.succeeded;
    digest.response.add(response_ms);
    digest.latency.add(response_ms);
    if (group < group_count_) {
      digest.group_response[group].add(response_ms);
      ++digest.group_successes[group];
    }
    // Per-group SLO histogram (preallocated; the digest only keeps the
    // all-groups latency histogram).
    obs_.observe_response(group, response_ms);
  }

  const std::uint32_t seq = user_seq_[request.user % user_seq_.size()]++;
  if (config_.record_request_series) {
    request_metric metric;
    metric.id = request.id;
    metric.user = request.user;
    metric.user_seq = seq;
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
// mca:hot-path-end

void offloading_system::on_trace(util::time_ms logged_at,
                                 util::time_ms created_at, user_id user,
                                 group_id group) {
  // Mirrors the retired slot_from_log scan: a request counts toward the
  // slot its creation time falls in, and only if it was logged before
  // that slot's boundary.  A boundary at exactly logged_at excludes it,
  // as event order would: the boundary is scheduled a slot ahead.
  if (created_at >= slot_window_start_ && logged_at < slot_window_end_ &&
      group < group_count_) {
    slot_users_[group].push_back(user);
  }
}

trace::time_slot offloading_system::take_current_slot() {
  trace::time_slot slot = trace::time_slot::from_group_users(slot_users_);
  for (auto& users : slot_users_) users.clear();  // keep capacity
  slot_window_start_ = slot_window_end_;
  slot_window_end_ += config_.slot_length;
  return slot;
}

void offloading_system::inject_background() {
  for (const auto& spec : config_.groups) {
    backend_->for_each_accepting(spec.group, [&](cloud::instance& server) {
      for (std::size_t i = 0; i < config_.background_requests_per_burst; ++i) {
        const auto work = pool_.random_request(background_rng_).work_units();
        if (server.submit(work, {})) ++metrics_.background_submitted;
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
  obs_.add(obs::counter::fault_preemptions);
  obs_.add(obs::counter::fault_inflight_killed, result.killed);
}

void offloading_system::begin_outage(std::size_t index) {
  const fault::outage_window& w = config_.faults.outages[index];
  backend_->begin_outage(w.group);
  obs_.add(obs::counter::fault_outages);
}

void offloading_system::end_outage(std::size_t index) {
  const fault::outage_window& w = config_.faults.outages[index];
  backend_->end_outage(w.group);
  restore_group(w.group);
}

void offloading_system::restore_group(group_id group) {
  obs_.add(obs::counter::fault_recoveries);
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
  obs_.add(obs::counter::slot_boundaries);
  // Close the telemetry window that ends at this boundary before any
  // boundary work lands in the next one.  The snapshot counter is bumped
  // first so the closing window accounts for its own close.
  obs_.add(obs::counter::timeline_snapshots);
  timeline_.snapshot(obs_, slot_index, sim_.now());
  exemplars_.roll_window(static_cast<std::uint32_t>(slot_index));
  // The slot that just ended becomes evidence.
  trace::time_slot finished = take_current_slot();
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
    if (config_.enable_adaptation && config_.external_allocation) {
      // The fleet coordinator owns the solve: park the demand for
      // take_pending_demand() and leave the fleet untouched until
      // apply_external_plan() answers.
      pending_demand_ =
          make_slot_allocation_request(config_, group_count_, predicted);
    } else if (allocator_) {
      allocation_plan plan = allocator_->solve(
          demand_from_prediction(predicted, group_count_));
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
}

void offloading_system::finish() {
  if (!started_) throw std::logic_error{"finish: begin() first"};
  if (background_ticker_) background_ticker_->stop();
  if (slot_ticker_) slot_ticker_->stop();
  // Let in-flight requests complete so metrics cover the whole workload.
  sim_.run_until(duration_ + util::minutes(10.0));

  // Close the drain-tail telemetry window (responses that completed after
  // the last boundary); its slot index is one past the last boundary's.
  obs_.add(obs::counter::timeline_snapshots);
  timeline_.snapshot(obs_, metrics_.slots.size(), sim_.now());
  exemplars_.roll_window(static_cast<std::uint32_t>(metrics_.slots.size()));

  metrics_.promotions = moderator_->promotions();
  metrics_.demotions = moderator_->demotions();
  metrics_.total_cost_usd = backend_->billing().total_cost(sim_.now());
}

void offloading_system::run(util::time_ms duration) {
  begin(duration);
  advance_to(duration);
  finish();
}

std::optional<allocation_request> offloading_system::take_pending_demand() {
  std::optional<allocation_request> demand = std::move(pending_demand_);
  pending_demand_.reset();
  return demand;
}

void offloading_system::apply_external_plan(const allocation_plan& plan) {
  if (metrics_.slots.empty()) {
    throw std::logic_error{"apply_external_plan: no slot boundary yet"};
  }
  apply_plan(plan);
  metrics_.slots.back().plan = plan;
}

}  // namespace mca::core
