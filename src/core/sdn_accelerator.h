// The SDN-accelerator: the cloud-side front-end that routes offloaded code
// into acceleration groups (§IV, §V).
//
// A request's life (Fig. 7a): the mobile uplink (T_m→f, half the sampled
// LTE round trip), the Request Handler + Code Offloader routing work
// (≈150 ms, Fig. 8a), the internal hop to the chosen back-end instance
// (T_f→b), cloud execution under processor sharing (T_cloud), and the two
// return hops (T_b→f, T_f→m).  The paper assumes the channel stays open
// both ways, so T_m→f = T_f→m and T_f→b = T_b→f.  The front-end routes
// and times requests; its one output is the owner's response_sink (the
// trace point per success, then every response), and the owner keeps the
// records: the running system feeds trace::slot_accumulator, the
// predictor's evidence, and its exemplar reservoir, and keeps no log.
//
// Hot-path layout: each accepted request occupies one 88-byte slot in a
// pooled slab of in-flight states (free-listed, reused).  A request gets a
// sim event only where something is decided: dispatch (admission at the
// back-end), the back-end completion, and delivery.  The front-end's
// per-request draws (the half-RTT and the routing overhead) happen at
// admission, in arrival order; the pure-delay legs between decisions are
// folded into the next event's time, summed in the order the legs elapse.
// Each stage is a member function scheduled with a [this, slot] event;
// the back-end hands a finished job back as its (slot, epoch) tag through
// the SDN's completion_sink, and every response goes to one
// response_sink, so the steady-state request path performs no heap
// allocation once the event engine's callback arena and the slabs are
// warm.
#pragma once

#include <vector>

#include "cloud/backend_pool.h"
#include "fault/fault_program.h"
#include "net/rtt_model.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/request.h"

namespace mca::core {

/// Front-end behaviour knobs (the resilience knobs live on
/// fault::fault_program).
struct sdn_config {
  /// Request Handler + Code Offloader processing (the paper's ≈150 ms).
  double routing_overhead_mean_ms = 150.0;
  double routing_overhead_sd_ms = 20.0;
  /// Front-end <-> back-end one-way latency (same private network).
  double backend_one_way_ms = 3.0;
  /// Read by nothing: kept only because `mca_bench/workloads.cpp:153`
  /// sets it; it goes when that line does.
  bool retain_trace_records = true;
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

/// The SDN's owner.  Implemented once, so no per-request callback state
/// is allocated.
class response_sink {
 public:
  virtual ~response_sink() = default;
  /// Response delivery, invoked at the mobile when the result (or the
  /// failure notice) arrives; `group` is the acceleration group the
  /// request was routed to.
  virtual void on_response(const workload::offload_request& request,
                           const request_timing& timing, group_id group) = 0;
  /// The trace point, where a successful request enters the log: lets
  /// the owner stream per-slot state without re-scanning a log.  It fires
  /// at the back-end completion, in completion order, with `logged_at`,
  /// the time the result reaches the front-end one internal hop later; an
  /// owner that cuts time into windows assigns the request by
  /// `logged_at`, not by the time the call runs.  Ignored by default.
  virtual void on_trace(util::time_ms /*logged_at*/,
                        util::time_ms /*created_at*/, user_id /*user*/,
                        group_id /*group*/) {}
};

/// The front-end component.  It is its back-end pool's completion sink:
/// a routed job is tagged with its in-flight slot and that slot's epoch.
class sdn_accelerator : private cloud::completion_sink {
 public:
  /// Installs itself as `backend`'s completion sink until destroyed;
  /// throws std::invalid_argument when the pool already reports to
  /// another (one front-end per pool at a time).  The SDN reads its retry,
  /// timeout, backoff and local-fallback knobs from `faults` only while
  /// the program is active(), checked by fault::validate's rules (throws
  /// std::invalid_argument).  An inactive program is bit-inert: no extra
  /// rng draw, no timer, no retry and no fallback, so a rejected request
  /// fails at once.
  sdn_accelerator(sim::simulation& sim, cloud::backend_pool& backend,
                  net::rtt_model mobile_link, sdn_config config,
                  util::rng rng,
                  const fault::fault_program& faults = {});
  ~sdn_accelerator() override;

  sdn_accelerator(const sdn_accelerator&) = delete;
  sdn_accelerator& operator=(const sdn_accelerator&) = delete;

  /// Accepts one offloading request destined for acceleration `group`.
  /// The response goes to the installed sink (see set_response_sink).
  void submit(const workload::offload_request& request, group_id group);

  /// Installs the response sink (nullptr = responses are dropped).
  void set_response_sink(response_sink* sink) noexcept { sink_ = sink; }

  /// Attaches the observability layer: `registry` (nullptr = counters
  /// off) takes the request counters — sdn_requests, sdn_successes and
  /// sdn_failures are the front-end's only count of its traffic;
  /// `tracer` (nullptr = no tracing)
  /// receives a request_lifecycle span for 1 request in `sample_every`
  /// into `tracer->ring(ring)`.  Both pointers are fixed after setup, so
  /// the disabled path is one predictable branch; span state lives in a
  /// slot-indexed side array, grown with the slab only once a sampled
  /// request needs it, so steady-state sampling allocates nothing.
  void set_observability(obs::registry* registry, obs::tracer* tracer,
                         std::size_t ring, std::size_t sample_every) noexcept {
    obs_ = registry;
    tracer_ = tracer;
    trace_ring_ = ring;
    trace_sample_every_ = sample_every == 0 ? 1 : sample_every;
  }

 private:
  /// In-flight request state, pooled and reused across requests.  The
  /// request and its timing are stored unpacked, without the constant legs
  /// and padding, and rebuilt at each reader (work(), request(), timing()).
  struct inflight {
    request_id id = 0;
    util::time_ms created_at = 0.0;
    const tasks::task* algorithm = nullptr;
    user_id user = 0;
    std::uint32_t size = 0;
    /// Half the sampled round trip: T_m→f and T_f→m alike (§VI-B.2).
    util::time_ms external_one_way = 0.0;
    util::time_ms routing = 0.0;
    util::time_ms cloud = 0.0;
    /// Arrival sequence (received_ at submit), the backoff-jitter stream
    /// key.  Not request.id: the generator numbers requests in emission
    /// order, which is not always the order they reach submit.
    std::uint64_t seq = 0;
    /// The armed per-attempt timer.
    sim::event_handle timeout{};
    group_id group = 0;
    /// Guards against stale backend completions: a timed-out attempt's
    /// completion carries an older epoch and is dropped.
    std::uint32_t epoch = 0;
    union {
      /// In flight: dispatch tries so far.
      std::uint32_t attempt = 0;
      /// Free: the next free slot.
      std::uint32_t next_free;
    };
    bool success = false;
    bool local = false;
    /// The result paid the back-end → front-end hop (T_b→f).
    bool back_to_front = false;
    /// Traced as a request_lifecycle span (its start is in span_starts_).
    bool sampled = false;

    tasks::task_request work() const noexcept { return {algorithm, size}; }
    workload::offload_request request() const noexcept {
      return {id, user, work(), created_at};
    }
  };
  static_assert(sizeof(inflight) <= 88, "an in-flight slot fits 88 bytes");
  /// Where a sampled request's span starts, by slot.
  struct span_start {
    double wall_us = 0.0;
    util::time_ms sim_ms = 0.0;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  // Stages of the Fig. 7a chain, each fired by a [this, slot] event
  // (stage_return runs inside the back-end completion).
  void stage_dispatch(std::uint32_t slot);
  void stage_return(std::uint32_t slot, util::time_ms service_time);
  void deliver(std::uint32_t slot);
  // Resilience path (see the sdn-retry-path hot region): backend
  // completions (tag = slot) funnel through the epoch guard; failed
  // attempts retry with backoff, fall back to local execution, or fail
  // out.
  void on_completion(std::uint32_t slot, std::uint32_t epoch,
                     util::time_ms service_time, bool ok) override;
  void on_timeout(std::uint32_t slot);
  void attempt_failed(std::uint32_t slot);

  /// The slot's timing, each leg the value the stages set, so t1(), t2()
  /// and total() sum the same doubles in the same order.
  request_timing timing(const inflight& s) const noexcept;
  double sample_routing_overhead();
  double hour_of_day() const noexcept;

  sim::simulation& sim_;
  cloud::backend_pool& backend_;
  net::rtt_model mobile_link_;
  sdn_config config_;
  fault::fault_program faults_;
  util::rng rng_;
  /// Seed of the per-request backoff-jitter streams; drawn from rng_ at
  /// construction only when the fault program is active, so fault-free
  /// runs leave the main stream untouched.
  std::uint64_t retry_seed_ = 0;
  response_sink* sink_ = nullptr;
  obs::registry* obs_ = nullptr;
  obs::tracer* tracer_ = nullptr;
  std::size_t trace_ring_ = 0;
  std::size_t trace_sample_every_ = 1024;

  std::vector<inflight> pool_;
  std::uint32_t free_head_ = kNoFreeSlot;
  /// Span starts by slot; empty unless a tracer samples a request.
  std::vector<span_start> span_starts_;

  /// Requests submitted so far: each request's arrival sequence.
  std::uint64_t received_ = 0;
};

}  // namespace mca::core
