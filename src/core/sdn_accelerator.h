// The SDN-accelerator: the cloud-side front-end that routes offloaded code
// into acceleration groups (§IV, §V).
//
// A request's life (Fig. 7a): the mobile uplink (T_m→f, half the sampled
// LTE round trip), the Request Handler + Code Offloader routing work
// (≈150 ms, Fig. 8a), the internal hop to the chosen back-end instance
// (T_f→b), cloud execution under processor sharing (T_cloud), and the two
// return hops (T_b→f, T_f→m).  The paper assumes the channel stays open
// both ways, so T_m→f = T_f→m and T_f→b = T_b→f.  Every processed request
// is logged as a trace record — the knowledge base of the predictor.
//
// Hot-path layout: each accepted request occupies one slot in a pooled
// slab of in-flight states (free-listed, reused).  A request gets a sim
// event only where something is decided: routing (the overhead draw),
// dispatch (admission at the back-end), the back-end completion, and
// delivery.  The pure-delay hops between them are folded into the next
// event's time, summed in the order the legs elapse.  Each stage is a
// member function scheduled with a [this, slot] lambda, small enough for
// std::function's inline storage, and every response goes to one
// response_sink, so the steady-state request path performs no heap
// allocation.
#pragma once

#include <functional>
#include <vector>

#include "cloud/backend_pool.h"
#include "net/rtt_model.h"
#include "obs/exemplar.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/simulation.h"
#include "trace/log_store.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/request.h"

namespace mca::core {

/// Front-end behaviour knobs.
struct sdn_config {
  /// Request Handler + Code Offloader processing (the paper's ≈150 ms).
  double routing_overhead_mean_ms = 150.0;
  double routing_overhead_sd_ms = 20.0;
  /// Front-end <-> back-end one-way latency (same private network).
  double backend_one_way_ms = 3.0;
  /// Keep the raw trace records in the attached log store.  Off (or with
  /// no log attached, as in core::offloading_system), the trace point
  /// still fires (prediction works) but nothing accumulates in memory.
  bool retain_trace_records = true;
  /// Keep raw per-group routing-time samples (Fig. 8a series).
  bool keep_routing_samples = false;

  // ---- resilience (fault-injection PR) ----------------------------------
  // All-off defaults are bit-inert: with no retries, no timeout, and no
  // fallback, the pipeline schedules exactly the events it always has and
  // draws nothing extra from any rng stream, so pre-fault goldens
  // reproduce exactly.
  /// Re-dispatch attempts after the first try fails or times out.
  std::size_t max_retries = 0;
  /// Per-attempt timeout; <= 0 never arms the timer.
  double request_timeout_ms = 0.0;
  /// Capped exponential backoff before retry k:
  /// min(cap, base * 2^(k-1)) * (0.5 + u), u from the request's own
  /// deterministic stream.
  double retry_backoff_base_ms = 200.0;
  double retry_backoff_cap_ms = 2'000.0;
  /// After retry exhaustion, run the task on the local device instead of
  /// failing (acceptance degrades instead of cliffing).
  bool local_fallback = false;
  /// Local device throughput for the fallback: work_units per ms.
  double local_exec_wu_per_ms = 0.005;

  bool resilience_enabled() const noexcept {
    return max_retries > 0 || request_timeout_ms > 0.0 || local_fallback;
  }
};

/// Per-request timing decomposition (Fig. 7a/7b vocabulary).
struct request_timing {
  util::time_ms mobile_to_front = 0.0;
  util::time_ms routing = 0.0;
  util::time_ms front_to_back = 0.0;
  util::time_ms cloud = 0.0;
  util::time_ms back_to_front = 0.0;
  util::time_ms front_to_mobile = 0.0;
  bool success = false;
  /// True when the response was produced by the on-device fallback after
  /// retry exhaustion (success is then also true; `cloud` holds the local
  /// execution time).
  bool local = false;

  /// T1 = T_m→f + T_f→m (external, over LTE).
  util::time_ms t1() const noexcept {
    return mobile_to_front + front_to_mobile;
  }
  /// T2 = front-end handling + both internal hops.
  util::time_ms t2() const noexcept {
    return routing + front_to_back + back_to_front;
  }
  /// T_response = T1 + T2 + T_cloud.
  util::time_ms total() const noexcept { return t1() + t2() + cloud; }
};

/// Response delivery, invoked at the mobile when the result (or the
/// failure notice) arrives; `group` is the acceleration group the request
/// was routed to.  Implemented once by the owner, so no per-request
/// callback state is allocated.
class response_sink {
 public:
  virtual ~response_sink() = default;
  virtual void on_response(const workload::offload_request& request,
                           const request_timing& timing, group_id group) = 0;
};

/// Observer of the trace point (where processed requests enter the log);
/// lets the owner stream per-slot state without re-scanning the log.  It
/// fires at the back-end completion with `logged_at`, the time the result
/// reaches the front-end one internal hop later; an owner that cuts time
/// into windows assigns the record by `logged_at`, not by the time the
/// callback runs.
using trace_fn = std::function<void(util::time_ms logged_at,
                                    util::time_ms created_at, user_id user,
                                    group_id group)>;

/// The front-end component.
class sdn_accelerator {
 public:
  /// `log` may be nullptr to disable persistence regardless of config;
  /// the trace observer fires either way.
  sdn_accelerator(sim::simulation& sim, cloud::backend_pool& backend,
                  net::rtt_model mobile_link, trace::log_store* log,
                  sdn_config config, util::rng rng);

  /// Accepts one offloading request destined for acceleration `group`.
  /// `battery` is the device's charge level, logged with the trace.  The
  /// response goes to the installed sink (see set_response_sink).
  void submit(const workload::offload_request& request, group_id group,
              double battery);

  /// Installs the response sink (nullptr = responses are dropped).
  void set_response_sink(response_sink* sink) noexcept { sink_ = sink; }

  /// Attaches the observability layer: `registry` (nullptr = counters
  /// off) takes the request counters; `tracer` (nullptr = no tracing)
  /// receives a request_lifecycle span for 1 request in `sample_every`
  /// into `tracer->ring(ring)`.  Both pointers are fixed after setup, so
  /// the disabled path is one predictable branch; span state lives in the
  /// pooled in-flight slab, so sampling allocates nothing.
  void set_observability(obs::registry* registry, obs::tracer* tracer,
                         std::size_t ring, std::size_t sample_every) noexcept {
    obs_ = registry;
    tracer_ = tracer;
    trace_ring_ = ring;
    trace_sample_every_ = sample_every == 0 ? 1 : sample_every;
  }
  /// Installs the trace observer, invoked where successful requests are
  /// logged: at the back-end completion, with the log time `logged_at`
  /// (see trace_fn), in completion order.
  void set_trace_observer(trace_fn fn) { on_trace_ = std::move(fn); }

  /// Attaches a tail-exemplar reservoir (nullptr = off): every delivered
  /// response is offered at the sink, where its latency is known — the
  /// sampling decision 1-in-N head sampling cannot make.  Fixed after
  /// setup.
  void set_exemplar_sink(obs::exemplar_reservoir* exemplars) noexcept {
    exemplars_ = exemplars;
  }

  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t succeeded() const noexcept { return succeeded_; }
  std::uint64_t failed() const noexcept { return failed_; }

  /// Routing-time statistics per group (Fig. 8a).
  const util::running_stats& routing_stats(group_id group) const;
  /// Raw samples when `keep_routing_samples` is on.
  const std::vector<double>& routing_samples(group_id group) const;

 private:
  /// In-flight request state, pooled and reused across requests.
  struct inflight {
    workload::offload_request request;
    request_timing timing;
    group_id group = 0;
    double battery = 1.0;
    std::uint32_t next_free = 0;
    // Retry bookkeeping: `attempt` counts dispatch tries, `epoch` guards
    // against stale backend completions (a timed-out attempt's completion
    // callback compares its captured epoch and drops itself), `timeout`
    // is the armed per-attempt timer.
    std::uint32_t attempt = 0;
    std::uint32_t epoch = 0;
    /// Arrival sequence (received_ at submit), the backoff-jitter stream
    /// key.  Not request.id: the generator numbers requests in emission
    /// order, which is not always the order they reach submit.
    std::uint64_t seq = 0;
    sim::event_handle timeout{};
    // Sampled-span state (set at submit, consumed at deliver).
    bool sampled = false;
    double span_wall_us = 0.0;
    util::time_ms span_sim_start = 0.0;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  // Stages of the Fig. 7a chain, each fired by a [this, slot] event
  // (stage_return runs inside the back-end completion).
  void stage_routing(std::uint32_t slot);
  void stage_dispatch(std::uint32_t slot);
  void stage_return(std::uint32_t slot, util::time_ms service_time);
  void deliver(std::uint32_t slot);
  // Resilience path (see the sdn-retry-path hot region): backend
  // completions funnel through the epoch guard; failed attempts retry
  // with backoff, fall back to local execution, or fail out.
  void on_backend_done(std::uint32_t slot, std::uint32_t epoch,
                       util::time_ms service_time, bool ok);
  void on_timeout(std::uint32_t slot);
  void attempt_failed(std::uint32_t slot);

  double sample_routing_overhead();
  double hour_of_day() const noexcept;

  sim::simulation& sim_;
  cloud::backend_pool& backend_;
  net::rtt_model mobile_link_;
  trace::log_store* log_;
  sdn_config config_;
  util::rng rng_;
  /// Seed of the per-request backoff-jitter streams; drawn from rng_ at
  /// construction only when resilience is configured, so all-off configs
  /// leave the main stream untouched.
  std::uint64_t retry_seed_ = 0;
  response_sink* sink_ = nullptr;
  trace_fn on_trace_;
  obs::registry* obs_ = nullptr;
  obs::exemplar_reservoir* exemplars_ = nullptr;
  obs::tracer* tracer_ = nullptr;
  std::size_t trace_ring_ = 0;
  std::size_t trace_sample_every_ = 1024;

  std::vector<inflight> pool_;
  std::uint32_t free_head_ = kNoFreeSlot;

  std::uint64_t received_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<util::running_stats> routing_stats_;
  std::vector<std::vector<double>> routing_samples_;
};

}  // namespace mca::core
