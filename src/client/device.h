// Mobile device model: heterogeneous local compute and energy, and the
// classic offloading decision inequality.
//
// The paper's motivation is exactly this heterogeneity: "complex routines
// ... can be computed easily by last generation smartphones but can be
// expensive to compute on older devices and wearables".  Device classes
// span that range; each class's profile holds a local execution speed
// (work units per ms) and energy coefficients for CPU and radio, and the
// §II-A rule — a device delegates a task iff the effort to delegate is
// less than the effort to run it — is a member of the profile.  The rule
// compares per-invocation energy costs; it reads no stored charge level.
#pragma once

#include "util/sim_time.h"

namespace mca::client {

/// Hardware tiers from the paper's intro narrative.
enum class device_class { wearable, budget, midrange, flagship };

const char* to_string(device_class c) noexcept;

/// Static per-class characteristics and the costs derived from them.
struct device_profile {
  device_class cls = device_class::midrange;
  double local_speed_wu_per_ms = 0.35;  ///< reference cloud core = 1.0
  double cpu_drain_per_wu = 4.0e-6;     ///< battery fraction per local wu
  double radio_drain_per_ms = 2.5e-7;   ///< battery fraction per radio-ms

  /// Time to run `work_units` locally on this hardware.
  util::time_ms local_execution_ms(double work_units) const noexcept {
    return work_units / local_speed_wu_per_ms;
  }
  /// Battery cost of computing locally.
  double local_energy(double work_units) const noexcept {
    return work_units * cpu_drain_per_wu;
  }
  /// Battery cost of keeping the radio active for `active_ms` (the
  /// offloading cost: the connection stays open until the result returns).
  double offload_energy(util::time_ms active_ms) const noexcept {
    return active_ms * radio_drain_per_ms;
  }

  /// §II-A decision: offload iff the energy effort to delegate (radio
  /// active for the expected end-to-end response) is below the energy
  /// effort of local execution.
  bool should_offload(double work_units,
                      util::time_ms expected_response_ms) const noexcept {
    return offload_energy(expected_response_ms) < local_energy(work_units);
  }
  /// Latency-oriented variant: true when the cloud path is expected to be
  /// faster than local execution.
  bool faster_remotely(double work_units,
                       util::time_ms expected_response_ms) const noexcept {
    return expected_response_ms < local_execution_ms(work_units);
  }
};

/// Lookup of the built-in profile for a class.
device_profile profile_for(device_class cls) noexcept;

}  // namespace mca::client
