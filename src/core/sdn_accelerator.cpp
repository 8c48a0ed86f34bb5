#include "core/sdn_accelerator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mca::core {

sdn_accelerator::sdn_accelerator(sim::simulation& sim,
                                 cloud::backend_pool& backend,
                                 net::rtt_model mobile_link,
                                 trace::log_store* log, sdn_config config,
                                 util::rng rng)
    : sim_{sim},
      backend_{backend},
      mobile_link_{std::move(mobile_link)},
      log_{log},
      config_{config},
      rng_{rng} {
  if (config.routing_overhead_mean_ms < 0.0 || config.backend_one_way_ms < 0.0) {
    throw std::invalid_argument{"sdn_config: negative latency"};
  }
  if (config.request_timeout_ms < 0.0 || config.retry_backoff_base_ms < 0.0 ||
      config.retry_backoff_cap_ms < 0.0) {
    throw std::invalid_argument{"sdn_config: negative retry timing"};
  }
  if (config.local_fallback && config.local_exec_wu_per_ms <= 0.0) {
    throw std::invalid_argument{
        "sdn_config: local_fallback needs local_exec_wu_per_ms > 0"};
  }
  // Drawn only when the resilience knobs are live: all-off configs leave
  // the main stream byte-identical to builds that predate retries.
  if (config_.resilience_enabled()) retry_seed_ = rng_();
}

double sdn_accelerator::sample_routing_overhead() {
  const double overhead = rng_.normal(config_.routing_overhead_mean_ms,
                                      config_.routing_overhead_sd_ms);
  // Handler work cannot go below a few ms no matter the jitter draw.
  return std::max(overhead, 5.0);
}

double sdn_accelerator::hour_of_day() const noexcept {
  return std::fmod(util::to_hours(sim_.now()), 24.0);
}

// The per-request pipeline: every stage below runs once per offloaded
// request, so the whole stretch is a lint-enforced hot-path region — the
// static twin of test_hot_path_alloc's counting-allocator gate, covering
// the stages even on inputs the fixed-seed run never reaches.  Slab
// growth (pool_.emplace_back) and the config-gated routing-sample
// retention are member-vector operations, which the region rules
// deliberately permit: they amortize to zero in steady state and the
// runtime gate holds them to that.
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

  const std::uint32_t slot = acquire_slot();
  inflight& s = pool_[slot];
  s.request = request;
  s.group = group;
  s.battery = battery;
  s.timing = {};
  s.timing.mobile_to_front = external_one_way;
  s.timing.front_to_mobile = external_one_way;
  s.attempt = 0;
  s.seq = received_;
  ++s.epoch;  // orphan any stale backend completion from a prior occupant
  s.timeout = {};
  s.sampled =
      tracer_ != nullptr && (received_ - 1) % trace_sample_every_ == 0;
  if (s.sampled) {
    s.span_wall_us = tracer_->now_us();
    s.span_sim_start = sim_.now();
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_sampled_spans);
  }

  sim_.schedule_after(external_one_way,
                      [this, slot] { stage_routing(slot); });
}

void sdn_accelerator::stage_routing(std::uint32_t slot) {
  // Front-end: Request Handler picks a worker thread, Code Offloader
  // resolves the target acceleration group.
  const double overhead = sample_routing_overhead();
  inflight& s = pool_[slot];
  s.timing.routing = overhead;
  if (s.group >= routing_stats_.size()) routing_stats_.resize(s.group + 1);
  routing_stats_[s.group].add(overhead);
  if (config_.keep_routing_samples) {
    if (s.group >= routing_samples_.size()) {
      routing_samples_.resize(s.group + 1);
    }
    routing_samples_[s.group].push_back(overhead);
  }
  // The hop to the back-end decides nothing, so it is folded into the
  // dispatch time, summed in the order the two legs elapse.
  s.timing.front_to_back = config_.backend_one_way_ms;
  sim_.schedule_at((sim_.now() + overhead) + config_.backend_one_way_ms,
                   [this, slot] { stage_dispatch(slot); });
}

void sdn_accelerator::stage_dispatch(std::uint32_t slot) {
  inflight& s = pool_[slot];
  ++s.attempt;
  const std::uint32_t epoch = s.epoch;
  const auto status = backend_.route(
      s.group, s.request.work.work_units(),
      [this, slot, epoch](util::time_ms service_time, bool ok) {
        on_backend_done(slot, epoch, service_time, ok);
      });
  if (status == cloud::route_status::ok) {
    if (config_.request_timeout_ms > 0.0) {
      s.timeout = sim_.schedule_after(config_.request_timeout_ms,
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
  s.timing.cloud = service_time;
  s.timing.back_to_front = config_.backend_one_way_ms;
  s.timing.success = true;
  // The trace point: the request is logged when its result reaches the
  // front-end, one internal hop from now.  That time is known here, so
  // the observer and the (optionally retained) log record fire now and
  // carry it; the owner decides slot membership by logged_at.
  const util::time_ms logged_at = sim_.now() + config_.backend_one_way_ms;
  if (on_trace_) {
    on_trace_(logged_at, s.request.created_at, s.request.user, s.group);
  }
  if (log_ != nullptr && config_.retain_trace_records) {
    log_->append({s.request.created_at, s.request.user, s.group, s.battery,
                  s.timing.total()});
  }
  sim_.schedule_at(logged_at + s.timing.front_to_mobile,
                   [this, slot] { deliver(slot); });
}

void sdn_accelerator::deliver(std::uint32_t slot) {
  inflight& s = pool_[slot];
  if (s.timing.success) {
    ++succeeded_;
  } else {
    ++failed_;
  }
  if (obs_ != nullptr) {
    obs_->add(s.timing.success ? obs::counter::sdn_successes
                               : obs::counter::sdn_failures);
  }
  if (exemplars_ != nullptr) {
    // Tail sampling at the sink: offer every response with its final
    // latency; the reservoir keeps the window's top-K over preallocated
    // storage (a compare and at most one O(log K) sift).
    obs::exemplar_record exemplar;
    exemplar.response_ms = s.timing.total();
    exemplar.issued_at_ms = s.request.created_at;
    exemplar.request = s.request.id;
    exemplar.user = s.request.user;
    exemplar.group = s.group;
    exemplar.success = s.timing.success;
    if (exemplars_->observe(exemplar) && obs_ != nullptr) {
      obs_->add(obs::counter::exemplar_admitted);
    }
  }
  if (s.sampled) {
    // Wall extent: host time this shard spent simulating the request's
    // window; sim extent: the response time itself.
    obs::span_record span;
    span.kind = obs::span_kind::request_lifecycle;
    span.wall_start_us = s.span_wall_us;
    span.wall_dur_us = tracer_->now_us() - s.span_wall_us;
    span.sim_start_ms = s.span_sim_start;
    span.sim_dur_ms = sim_.now() - s.span_sim_start;
    span.arg_a = s.request.user;
    span.arg_b = s.timing.success ? 1 : 0;
    tracer_->ring(trace_ring_).push(span);
  }
  if (sink_ != nullptr) {
    const workload::offload_request request = s.request;
    const request_timing timing = s.timing;
    const group_id group = s.group;
    release_slot(slot);
    sink_->on_response(request, timing, group);
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
void sdn_accelerator::on_backend_done(std::uint32_t slot, std::uint32_t epoch,
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
  // captured epoch no longer matches.
  ++s.epoch;
  if (obs_ != nullptr) obs_->add(obs::counter::sdn_timeouts);
  // The front-end held the request for the full timeout window.
  s.timing.routing += config_.request_timeout_ms;
  attempt_failed(slot);
}

void sdn_accelerator::attempt_failed(std::uint32_t slot) {
  inflight& s = pool_[slot];
  if (static_cast<std::size_t>(s.attempt) <= config_.max_retries) {
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_retries);
    // Capped exponential backoff with jitter from the request's own
    // counter-split stream, keyed on the arrival sequence (not request.id,
    // which follows the generator's numbering): deterministic per
    // (seed, arrival, attempt), independent of thread or shard layout.
    const std::uint32_t shift = s.attempt > 16 ? 16u : s.attempt - 1;
    double wait = config_.retry_backoff_base_ms *
                  static_cast<double>(std::uint64_t{1} << shift);
    if (wait > config_.retry_backoff_cap_ms) {
      wait = config_.retry_backoff_cap_ms;
    }
    util::rng jitter =
        util::rng::split(retry_seed_, (s.seq << 8) | s.attempt);
    wait *= 0.5 + jitter.uniform();
    s.timing.routing += wait;
    sim_.schedule_after(wait, [this, slot] { stage_dispatch(slot); });
    return;
  }
  if (config_.local_fallback) {
    if (obs_ != nullptr) obs_->add(obs::counter::sdn_local_fallbacks);
    // Graceful degradation: the device runs the task itself.  The result
    // needs no network legs beyond those already paid; the "cloud" time
    // becomes the (much slower) local execution.
    const double local_ms =
        s.request.work.work_units() / config_.local_exec_wu_per_ms;
    s.timing.cloud = local_ms;
    s.timing.local = true;
    s.timing.success = true;
    sim_.schedule_at((sim_.now() + local_ms) + s.timing.front_to_mobile,
                     [this, slot] { deliver(slot); });
    return;
  }
  // Retry budget exhausted, no fallback: the failure notice still pays
  // the return hops (identical to the pre-retry rejection path).
  s.timing.cloud = 0.0;
  s.timing.back_to_front = config_.backend_one_way_ms;
  sim_.schedule_at(
      (sim_.now() + config_.backend_one_way_ms) + s.timing.front_to_mobile,
      [this, slot] { deliver(slot); });
}
// mca:hot-path-end

namespace {
const util::running_stats kEmptyStats{};
const std::vector<double> kEmptySamples{};
}  // namespace

const util::running_stats& sdn_accelerator::routing_stats(
    group_id group) const {
  return group < routing_stats_.size() ? routing_stats_[group] : kEmptyStats;
}

const std::vector<double>& sdn_accelerator::routing_samples(
    group_id group) const {
  return group < routing_samples_.size() ? routing_samples_[group]
                                         : kEmptySamples;
}

}  // namespace mca::core
