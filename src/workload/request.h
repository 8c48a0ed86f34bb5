// The unit of traffic between workload generators and the front-end.
#pragma once

#include <functional>

#include "tasks/task.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::workload {

/// One code-offloading request emitted by a simulated device.
struct offload_request {
  /// 1, 2, ... in the emitting generator's own emission order: unique
  /// within one generator, the same in every run of the same simulation.
  request_id id = 0;
  user_id user = 0;
  tasks::task_request work;
  util::time_ms created_at = 0.0;
};

/// Receives generated requests (typically the SDN-accelerator's request
/// handler, or a bare instance in characterization benches).
using request_sink = std::function<void(const offload_request&)>;

}  // namespace mca::workload
