// Tail-based request sampling: a bounded top-K reservoir of the slowest
// request lifecycles per provisioning-slot window.
//
// The tracer's 1-in-N head sampling decides whether to record a request
// when it *arrives*, so at any realistic sampling rate it statistically
// never captures a p99 request.  The reservoir decides at the *response
// sink*, when the latency is known: every delivered response is offered
// to a K-slot min-heap keyed "slower first, ties to the lower request
// id", and at each slot boundary the window's K slowest lifecycles are
// flushed to a preallocated store.  Admission is an O(log K) compare /
// sift over storage sized once at setup — allocation-free and
// deterministic, so per-shard reservoirs merged in shard-index order
// reproduce bit-identically at any pool size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/tracer.h"
#include "util/ids.h"

namespace mca::obs {

/// One tail exemplar: the lifecycle of one of the slowest requests in
/// its window.  `slot` is stamped at flush time by roll_window().
struct exemplar_record {
  double response_ms = 0.0;
  double issued_at_ms = 0.0;  ///< sim time the request was created
  std::uint64_t request = 0;  ///< request id — the deterministic tie-break
  user_id user = 0;
  group_id group = 0;
  std::uint32_t slot = 0;
  bool success = false;
};

/// Strict tail order: `a` ranks ahead of `b` when it is slower, ties
/// resolved toward the lower request id.
inline bool exemplar_before(const exemplar_record& a,
                            const exemplar_record& b) noexcept {
  if (a.response_ms != b.response_ms) return a.response_ms > b.response_ms;
  return a.request < b.request;
}

class exemplar_reservoir {
 public:
  /// (Re)allocates the K-slot heap and reserves the flush store for
  /// `window_capacity` windows.  Setup-time only; top_k == 0 disables
  /// the reservoir (observe() rejects everything).
  void reset(std::size_t top_k, std::size_t window_capacity);

  // Called per delivered response from inside the SDN request pipeline's
  // hot-path region: a compare against the heap root and at most one
  // O(log K) sift, over preallocated storage.
  // mca:hot-path-begin(obs-exemplar)
  /// Offers a completed lifecycle; returns true when it displaced into
  /// the current window's top-K.
  bool observe(const exemplar_record& r) noexcept;
  // mca:hot-path-end

  /// Closes the current window: sorts its top-K slowest-first, stamps
  /// `slot`, and appends to the flushed store.  Slot-rate.
  void roll_window(std::uint32_t slot);

  /// Flushed exemplars in window order, slowest-first within a window.
  const std::vector<exemplar_record>& records() const noexcept {
    return records_;
  }

 private:
  std::size_t top_k_ = 0;
  std::size_t heap_size_ = 0;
  std::vector<exemplar_record> heap_;  ///< min-heap: root = least slow kept
  std::vector<exemplar_record> records_;
};

/// Fleet merge: concatenated per-shard records (in shard-index order) cut
/// back to the `top_k` slowest per window under the same tail order —
/// stable, so cross-shard full ties keep shard order and the result is
/// deterministic.  Post-run only.
std::vector<exemplar_record> top_exemplars_per_window(
    std::vector<exemplar_record> all, std::size_t top_k);

/// Chrome-trace lane spans for flushed exemplars: one sim-timeline span
/// per record covering issue → response (a=user, b=request id).
std::vector<span_record> exemplar_spans(
    const std::vector<exemplar_record>& records);

}  // namespace mca::obs
