#include "core/sdn_accelerator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mca::core {

sdn_accelerator::sdn_accelerator(sim::simulation& sim,
                                 cloud::backend_pool& backend,
                                 net::rtt_model mobile_link,
                                 trace::log_store* log, sdn_config config,
                                 util::rng rng,
                                 const fault::fault_program& faults)
    : sim_{sim},
      backend_{backend},
      mobile_link_{std::move(mobile_link)},
      log_{log},
      config_{config},
      faults_{faults},
      rng_{rng} {
  if (config.routing_overhead_mean_ms < 0.0 || config.backend_one_way_ms < 0.0) {
    throw std::invalid_argument{"sdn_config: negative latency"};
  }
  if (backend_.has_completion_sink()) {
    throw std::invalid_argument{
        "sdn_accelerator: the backend pool already has a front-end"};
  }
  // The front-end knows no horizon, so outage windows are checked only
  // for order here; the run checks them against its duration.
  fault::validate(faults_, std::numeric_limits<util::time_ms>::infinity(),
                  "sdn_accelerator");
  // Drawn only under an active program: a fault-free run's main stream
  // carries no resilience draw.
  if (faults_.active()) retry_seed_ = rng_();
  backend_.set_completion_sink(this);
}

sdn_accelerator::~sdn_accelerator() { backend_.set_completion_sink(nullptr); }

double sdn_accelerator::sample_routing_overhead() {
  const double overhead = rng_.normal(config_.routing_overhead_mean_ms,
                                      config_.routing_overhead_sd_ms);
  // Handler work cannot go below a few ms no matter the jitter draw.
  return std::max(overhead, 5.0);
}

request_timing sdn_accelerator::timing(const inflight& s) const noexcept {
  request_timing t;
  t.mobile_to_front = s.external_one_way;
  t.routing = s.routing;
  t.front_to_back = config_.backend_one_way_ms;
  t.cloud = s.cloud;
  t.back_to_front = s.back_to_front ? config_.backend_one_way_ms : 0.0;
  t.front_to_mobile = s.external_one_way;
  t.success = s.success;
  t.local = s.local;
  return t;
}

double sdn_accelerator::hour_of_day() const noexcept {
  return std::fmod(util::to_hours(sim_.now()), 24.0);
}

// The per-request pipeline: every stage below runs once per offloaded
// request, so the whole stretch is a lint-enforced hot-path region — the
// static twin of test_hot_path_alloc's counting-allocator gate, covering
// the stages even on inputs the fixed-seed run never reaches.  Slab
// growth (pool_.emplace_back) is a member-vector operation, which the
// region rules deliberately permit: it amortizes to zero in steady state
// and the runtime gate holds it to that.
// mca:hot-path-begin(sdn-request-pipeline)
std::uint32_t sdn_accelerator::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void sdn_accelerator::release_slot(std::uint32_t slot) noexcept {
  inflight& s = pool_[slot];
  if (s.timeout.valid()) {
    // Defensive: every path that reaches delivery already cancelled its
    // timer; a stale handle here would otherwise fire into a recycled slot.
    sim_.cancel(s.timeout);
    s.timeout = {};
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

void sdn_accelerator::submit(const workload::offload_request& request,
                             group_id group, double battery) {
  ++received_;
  if (obs_ != nullptr) obs_->add(obs::counter::sdn_requests);
  // The channel stays open for the whole operation, so both external legs
  // see the same half-RTT (§VI-B.2).
  const double external_one_way =
      mobile_link_.sample(rng_, hour_of_day()) / 2.0;
  // Front-end: Request Handler picks a worker thread, Code Offloader
  // resolves the target acceleration group.  The overhead decides nothing,
  // so it needs no event of its own: it is drawn at admission, in arrival
  // order.
  const double overhead = sample_routing_overhead();

  const std::uint32_t slot = acquire_slot();
  inflight& s = pool_[slot];
  s.id = request.id;
  s.created_at = request.created_at;
  s.algorithm = request.work.algorithm;
  s.user = request.user;
  s.size = request.work.size;
  s.external_one_way = external_one_way;
  s.routing = overhead;
  s.cloud = 0.0;
  s.battery = battery;
  s.seq = received_;
  s.timeout = {};
  s.group = group;
  ++s.epoch;  // orphan any stale backend completion from a prior occupant
  s.attempt = 0;
  s.success = false;
  s.local = false;
  s.back_to_front = false;
  s.sampled =
      tracer_ != nullptr && (received_ - 1) % trace_sample_every_ == 0;
  if (s.sampled) {
    if (span_starts_.size() < pool_.size()) span_starts_.resize(pool_.size());
    span_starts_[slot] = {tracer_->now_us(), sim_.now()};
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_sampled_spans);
  }

  // The uplink, the front-end work and the hop to the back-end are pure
  // delay, folded into the dispatch time, summed in the order they elapse.
  sim_.schedule_at(
      ((sim_.now() + external_one_way) + overhead) + config_.backend_one_way_ms,
      [this, slot] { stage_dispatch(slot); });
}

void sdn_accelerator::stage_dispatch(std::uint32_t slot) {
  inflight& s = pool_[slot];
  ++s.attempt;
  const auto status =
      backend_.route(s.group, s.work().work_units(), slot, s.epoch);
  if (status == cloud::route_status::ok) {
    if (faults_.active() && faults_.request_timeout_ms > 0.0) {
      s.timeout = sim_.schedule_after(faults_.request_timeout_ms,
                                      [this, slot] { on_timeout(slot); });
    }
    return;
  }
  // Rejected at the back-end (cap, drain, or outage): retry, fall back,
  // or deliver the failure notice.
  attempt_failed(slot);
}

void sdn_accelerator::stage_return(std::uint32_t slot,
                                   util::time_ms service_time) {
  inflight& s = pool_[slot];
  s.cloud = service_time;
  s.back_to_front = true;
  s.success = true;
  // The trace point: the request is logged when its result reaches the
  // front-end, one internal hop from now.  That time is known here, so
  // the sink's trace point and the (optionally retained) log record fire
  // now and carry it; the owner decides slot membership by logged_at.
  const util::time_ms logged_at = sim_.now() + config_.backend_one_way_ms;
  if (sink_ != nullptr) {
    sink_->on_trace(logged_at, s.created_at, s.user, s.group);
  }
  if (log_ != nullptr && config_.retain_trace_records) {
    log_->append({s.created_at, s.user, s.group, s.battery,
                  timing(s).total()});
  }
  sim_.schedule_at(logged_at + s.external_one_way,
                   [this, slot] { deliver(slot); });
}

void sdn_accelerator::deliver(std::uint32_t slot) {
  inflight& s = pool_[slot];
  const request_timing t = timing(s);
  if (obs_ != nullptr) {
    obs_->add(t.success ? obs::counter::sdn_successes
                        : obs::counter::sdn_failures);
  }
  if (exemplars_ != nullptr) {
    // Tail sampling at the sink: offer every response with its final
    // latency; the reservoir keeps the window's top-K over preallocated
    // storage (a compare and at most one O(log K) sift).
    obs::exemplar_record exemplar;
    exemplar.response_ms = t.total();
    exemplar.issued_at_ms = s.created_at;
    exemplar.request = s.id;
    exemplar.user = s.user;
    exemplar.group = s.group;
    exemplar.success = t.success;
    if (exemplars_->observe(exemplar) && obs_ != nullptr) {
      obs_->add(obs::counter::exemplar_admitted);
    }
  }
  if (s.sampled) {
    // Wall extent: host time this shard spent simulating the request's
    // window; sim extent: the response time itself.
    const span_start& start = span_starts_[slot];
    obs::span_record span;
    span.kind = obs::span_kind::request_lifecycle;
    span.wall_start_us = start.wall_us;
    span.wall_dur_us = tracer_->now_us() - start.wall_us;
    span.sim_start_ms = start.sim_ms;
    span.sim_dur_ms = sim_.now() - start.sim_ms;
    span.arg_a = s.user;
    span.arg_b = t.success ? 1 : 0;
    tracer_->ring(trace_ring_).push(span);
  }
  if (sink_ != nullptr) {
    const workload::offload_request request = s.request();
    const group_id group = s.group;
    release_slot(slot);
    sink_->on_response(request, t, group);
    return;
  }
  release_slot(slot);
}
// mca:hot-path-end

// The resilience path: backend completions (ok or killed), per-attempt
// timeouts, and the retry/backoff/fallback decision all run per affected
// request at fault-heavy steady state, so they form their own
// lint-enforced hot-path region — the retry bookkeeping may not allocate
// (test_hot_path_alloc re-verifies this at runtime with faults enabled).
// mca:hot-path-begin(sdn-retry-path)
void sdn_accelerator::on_completion(std::uint32_t slot, std::uint32_t epoch,
                                    util::time_ms service_time, bool ok) {
  inflight& s = pool_[slot];
  // A completion whose epoch is stale belongs to an attempt this request
  // already timed out of (or to a previous occupant of a recycled slot) —
  // the instance did the work, the client has moved on.
  if (s.epoch != epoch) return;
  if (s.timeout.valid()) {
    sim_.cancel(s.timeout);
    s.timeout = {};
  }
  if (ok) {
    stage_return(slot, service_time);
    return;
  }
  // Killed in flight (spot preemption / forced drain): the partial
  // service time is lost; decide retry vs fallback vs failure.
  attempt_failed(slot);
}

void sdn_accelerator::on_timeout(std::uint32_t slot) {
  inflight& s = pool_[slot];
  s.timeout = {};
  // Orphan the outstanding backend completion: when (if) it lands, its
  // epoch no longer matches.
  ++s.epoch;
  if (obs_ != nullptr) obs_->add(obs::counter::sdn_timeouts);
  // The front-end held the request for the full timeout window.
  s.routing += faults_.request_timeout_ms;
  attempt_failed(slot);
}

void sdn_accelerator::attempt_failed(std::uint32_t slot) {
  inflight& s = pool_[slot];
  if (faults_.active() &&
      static_cast<std::size_t>(s.attempt) <= faults_.max_retries) {
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_retries);
    // Capped exponential backoff with jitter from the request's own
    // counter-split stream, keyed on the arrival sequence (not request.id,
    // which follows the generator's numbering): deterministic per
    // (seed, arrival, attempt), independent of thread or shard layout.
    const std::uint32_t shift = s.attempt > 16 ? 16u : s.attempt - 1;
    double wait = faults_.retry_backoff_base_ms *
                  static_cast<double>(std::uint64_t{1} << shift);
    if (wait > faults_.retry_backoff_cap_ms) {
      wait = faults_.retry_backoff_cap_ms;
    }
    util::rng jitter =
        util::rng::split(retry_seed_, (s.seq << 8) | s.attempt);
    wait *= 0.5 + jitter.uniform();
    s.routing += wait;
    sim_.schedule_after(wait, [this, slot] { stage_dispatch(slot); });
    return;
  }
  if (faults_.active() && faults_.local_fallback) {
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_local_fallbacks);
    // Graceful degradation: the device runs the task itself.  The result
    // needs no network legs beyond those already paid; the "cloud" time
    // becomes the (much slower) local execution.
    const double local_ms =
        s.work().work_units() / faults_.local_exec_wu_per_ms;
    s.cloud = local_ms;
    s.local = true;
    s.success = true;
    sim_.schedule_at((sim_.now() + local_ms) + s.external_one_way,
                     [this, slot] { deliver(slot); });
    return;
  }
  // Retry budget exhausted, no fallback: the failure notice still pays
  // the return hops (identical to the pre-retry rejection path).
  s.cloud = 0.0;
  s.back_to_front = true;
  sim_.schedule_at(
      (sim_.now() + config_.backend_one_way_ms) + s.external_one_way,
      [this, slot] { deliver(slot); });
}
// mca:hot-path-end

}  // namespace mca::core
