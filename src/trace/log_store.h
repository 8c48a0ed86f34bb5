// The request log — the paper's MySQL table, in memory.
//
// The Code Offloader logs every processed request as
// <timestamp, user-id, acceleration-group, battery-level, round-trip-time>;
// the predictor's knowledge base is built by sorting these traces
// chronologically and cutting them into fixed-length time slots.  The
// SDN-accelerator keeps no log: whoever owns its response sink builds one
// from the responses it wants (example_trace_replay does), and the
// running system cuts its slots at the sink's trace point instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/time_slot.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::trace {

/// One logged request, exactly the key-value tuple of §IV-A.
struct trace_record {
  util::time_ms timestamp = 0.0;
  user_id user = 0;
  group_id group = 0;
  double battery_level = 1.0;  ///< [0,1]
  double rtt_ms = 0.0;         ///< end-to-end response time of the request
};

/// Append-mostly trace database with slot extraction.
class log_store {
 public:
  void append(trace_record record);
  std::size_t size() const noexcept { return records_.size(); }
  std::span<const trace_record> records() const noexcept { return records_; }

  /// Records with timestamp in [from, to).
  std::vector<trace_record> in_range(util::time_ms from,
                                     util::time_ms to) const;

  /// Cuts the log into consecutive slots of `slot_length` starting at
  /// `origin`; produces ceil((last - origin)/len) slots (empty slots
  /// preserved so periodic structure survives).  `group_count` fixes the
  /// slot dimensionality.  Throws std::invalid_argument on a non-positive
  /// slot length or zero groups.
  std::vector<time_slot> build_slots(util::time_ms slot_length,
                                     std::size_t group_count,
                                     util::time_ms origin = 0.0) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<trace_record> records_;
  mutable bool sorted_ = true;
};

}  // namespace mca::trace
