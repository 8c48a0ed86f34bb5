// Span tracing into preallocated per-shard ring buffers, exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Every span carries both clocks: the wall time the host spent producing
// it (where did the run's real seconds go) and, when meaningful, the
// simulated interval it covers (where did the scenario's virtual hours
// go).  The exporter emits two trace processes — pid 1 is the wall-clock
// timeline, pid 2 the simulated-time timeline (1 simulated ms rendered as
// 1 µs) — with one trace thread per ring, so a fleet run reads as: shard
// lanes showing advance rounds with sampled request lifecycles inside
// them, a coordinator lane with per-slot solve/split spans, and pool
// worker lanes showing idle gaps between rounds.
//
// Concurrency contract: each ring has exactly one writer at a time (ring k
// is written only by whichever pool thread is advancing shard k, and the
// bulk-synchronous barriers order successive rounds; the coordinator ring
// is written by the coordinating thread; each pool worker owns its own
// ring).  Rings are preallocated at tracer construction and never grow: a
// full ring overwrites its oldest span, so a trace is always the newest
// window of activity and recording is allocation-free.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mca::obs {

enum class span_kind : std::uint8_t {
  slot_round,         ///< one bulk-synchronous fleet round (a=slot)
  shard_advance,      ///< one shard advancing to the boundary (a=slot, b=shard)
  coordinator_solve,  ///< fleet ILP solve (a=slot, b=plan instances)
  quota_split,        ///< largest-remainder quota split (a=slot, b=shards)
  request_lifecycle,  ///< sampled request through the SDN (a=user, b=success)
  pool_idle,          ///< worker idle gap between tasks (a=worker)
  request_exemplar,   ///< tail top-K request lifecycle (a=user, b=request id)
  slo_alert,          ///< SLO alert active interval (a=objective, b=fire slot)
  fault_window,       ///< injected outage interval (a=group, b=fault kind)
};

/// Trace-event name of a kind.
const char* span_name(span_kind k) noexcept;

struct span_record {
  double wall_start_us = 0.0;  ///< relative to the tracer's epoch
  double wall_dur_us = 0.0;
  double sim_start_ms = -1.0;  ///< negative: wall-only span
  double sim_dur_ms = 0.0;
  std::uint64_t arg_a = 0;     ///< kind-specific (see span_kind)
  std::uint64_t arg_b = 0;
  span_kind kind = span_kind::slot_round;
};

/// Fixed-capacity overwrite-oldest span buffer; single writer.
class span_ring {
 public:
  explicit span_ring(std::size_t capacity);

  void push(const span_record& r) noexcept {
    slots_[pushed_ % slots_.size()] = r;
    ++pushed_;
  }
  /// Spans currently held: min(pushed, capacity).
  std::size_t size() const noexcept {
    return pushed_ < slots_.size() ? static_cast<std::size_t>(pushed_)
                                   : slots_.size();
  }
  /// Spans lost to wraparound (the oldest ones).
  std::uint64_t dropped() const noexcept {
    return pushed_ <= slots_.size() ? 0 : pushed_ - slots_.size();
  }
  /// i-th retained span, oldest first (i < size()).
  const span_record& at(std::size_t i) const noexcept {
    const std::uint64_t first = dropped();
    return slots_[(first + i) % slots_.size()];
  }

 private:
  std::vector<span_record> slots_;
  std::uint64_t pushed_ = 0;
};

/// An extra named trace thread built post-run from records rather than a
/// live ring — the exemplar and alert lanes.  Lane spans are usually
/// sim-stamped; they render on the simulated-time process with one trace
/// thread per lane, after the ring threads.
struct trace_lane {
  std::string name;
  std::vector<span_record> spans;
};

/// Slot-window export filter (`fleet_scale --trace-slots A:B`): spans
/// with a simulated extent are kept when they overlap
/// [sim_begin_ms, sim_end_ms); wall-only spans that carry a slot index
/// (coordinator_solve, quota_split: arg_a) are kept when it falls in
/// [slot_begin, slot_end]; un-slotted wall-only spans (pool_idle) are
/// dropped — an outage window stays inspectable without the rest of the
/// run's spans.
struct trace_filter {
  std::uint64_t slot_begin = 0;
  std::uint64_t slot_end = 0;
  double sim_begin_ms = 0.0;
  double sim_end_ms = 0.0;
};

/// True when `filter` retains `s` (the rule above).
bool trace_filter_keeps(const trace_filter& filter,
                        const span_record& s) noexcept;

class tracer {
 public:
  struct options {
    std::size_t rings = 1;
    std::size_t capacity_per_ring = 4096;
  };

  explicit tracer(options opts);

  std::size_t ring_count() const noexcept { return rings_.size(); }
  span_ring& ring(std::size_t i) noexcept { return rings_[i]; }

  /// Wall microseconds since tracer construction (span timestamps).
  double now_us() const noexcept {
    // mca-lint: allow(det-wallclock) wall lane of the span trace (pid 1);
    // span timestamps are excluded from every fingerprint by design.
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(now - epoch_).count();
  }

  /// Writes the trace as Chrome trace-event JSON: ring spans plus extra
  /// lanes (exemplars, alerts), with an optional slot-window filter
  /// (nullptr exports everything).  `ring_names` labels the trace threads
  /// (thread_name metadata); rings beyond the list fall back to "ring N".
  void export_chrome_trace(std::FILE* out,
                           const std::vector<std::string>& ring_names,
                           const std::vector<trace_lane>& lanes = {},
                           const trace_filter* filter = nullptr) const;
  /// Same, to a file path.  Returns false when the file cannot be opened.
  bool export_chrome_trace(const std::string& path,
                           const std::vector<std::string>& ring_names,
                           const std::vector<trace_lane>& lanes = {},
                           const trace_filter* filter = nullptr) const;

 private:
  std::vector<span_ring> rings_;
  // mca-lint: allow(det-wallclock) wall epoch for the trace's wall lane.
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace mca::obs
