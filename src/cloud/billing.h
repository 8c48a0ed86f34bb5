// Instance-hour billing, the cost side of the allocation model.
//
// The paper's premise: "a provisioned instance is billed by hour by most of
// the cloud vendors".  Every launch opens a billing record; cost accrues in
// started hours (ceil, minimum one) at the type's on-demand price.
#pragma once

#include <unordered_map>

#include "cloud/instance_type.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::cloud {

/// Tracks the total dollar cost of a fleet over simulated time.
class billing_meter {
 public:
  /// Opens a record for a launched instance.
  /// Throws std::logic_error when the id is already active.
  void on_launch(instance_id id, const instance_type& type,
                 util::time_ms at);

  /// Closes a record.  Throws std::logic_error when the id is not active.
  void on_terminate(instance_id id, util::time_ms at);

  /// Total cost of all closed records plus the accrued (started-hour) cost
  /// of instances still running at `now`.
  double total_cost(util::time_ms now) const;

  /// Number of currently open records.
  std::size_t active_instances() const noexcept { return open_.size(); }

 private:
  struct record {
    double cost_per_hour = 0.0;
    util::time_ms start = 0.0;
  };

  static double billed_hours(util::time_ms start, util::time_ms end);

  std::unordered_map<instance_id, record> open_;
  /// Closed records fold into one running sum at termination time (in
  /// close order, so the FP accumulation order the golden fingerprints
  /// pin is unchanged) instead of accumulating one stored record each: a
  /// preemption-heavy fleet run closes records at fault rate, and the
  /// close path must neither allocate nor grow without bound.
  double closed_cost_ = 0.0;
};

}  // namespace mca::cloud
