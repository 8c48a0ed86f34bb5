// Mobile device model: heterogeneous local compute, battery, and the
// classic offloading decision inequality.
//
// The paper's motivation is exactly this heterogeneity: "complex routines
// ... can be computed easily by last generation smartphones but can be
// expensive to compute on older devices and wearables".  Device classes
// span that range; each class has a local execution speed (work units per
// ms) and energy coefficients for CPU and radio, so the §II-A rule — a
// device delegates a task iff the effort to delegate is less than the
// effort to run it — is computable.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::client {

/// Hardware tiers from the paper's intro narrative.
enum class device_class { wearable, budget, midrange, flagship };

const char* to_string(device_class c) noexcept;

/// Static per-class characteristics.
struct device_profile {
  device_class cls = device_class::midrange;
  double local_speed_wu_per_ms = 0.35;  ///< reference cloud core = 1.0
  double cpu_drain_per_wu = 4.0e-6;     ///< battery fraction per local wu
  double radio_drain_per_ms = 2.5e-7;   ///< battery fraction per radio-ms
};

/// Lookup of the built-in profile for a class.
device_profile profile_for(device_class cls) noexcept;

/// One simulated handset/wearable.
class mobile_device {
 public:
  mobile_device(user_id id, device_class cls, double initial_battery = 1.0);

  user_id id() const noexcept { return id_; }
  device_class cls() const noexcept { return profile_.cls; }
  const device_profile& profile() const noexcept { return profile_; }
  /// Remaining battery in [0,1].
  double battery() const noexcept { return battery_; }

  /// Time to run `work_units` locally on this hardware.
  util::time_ms local_execution_ms(double work_units) const noexcept;

  /// Battery cost of computing locally.
  double local_energy(double work_units) const noexcept;
  /// Battery cost of keeping the radio active for `active_ms` (the
  /// offloading cost: the connection stays open until the result returns).
  double offload_energy(util::time_ms active_ms) const noexcept;

  /// §II-A decision: offload iff the energy effort to delegate (radio
  /// active for the expected end-to-end response) is below the energy
  /// effort of local execution.
  bool should_offload(double work_units,
                      util::time_ms expected_response_ms) const noexcept;

  /// Latency-oriented variant: true when the cloud path is expected to be
  /// faster than local execution.
  bool faster_remotely(double work_units,
                       util::time_ms expected_response_ms) const noexcept;

  /// Drains battery for a local run / an offload round trip (clamped at 0).
  void account_local_run(double work_units) noexcept;
  void account_offload(util::time_ms active_ms) noexcept;

 private:
  user_id id_;
  device_profile profile_;
  double battery_;
};

/// Struct-of-arrays population state: one battery level and one device
/// class per user, profiles shared per class.  The closed-loop system's
/// per-request device accounting touches two flat arrays instead of a
/// vector of full mobile_device objects; semantics match mobile_device
/// exactly (same profiles, same clamping).
class device_slab {
 public:
  /// `mix` is cycled over users (the closed-loop system cycles flagship,
  /// midrange, budget, wearable).
  device_slab(std::size_t user_count, std::span<const device_class> mix);

  // Per-request SoA accessors: one array read/write per decision or
  // accounting call, no indirection — lint-enforced as a hot-path region.
  // mca:hot-path-begin(client-soa-state)
  std::size_t size() const noexcept { return battery_.size(); }
  double battery(user_id u) const noexcept { return battery_[u]; }
  device_class cls(user_id u) const noexcept {
    return static_cast<device_class>(class_[u]);
  }
  const device_profile& profile(user_id u) const noexcept {
    return profiles_[class_[u]];
  }

  /// Battery drain of one offload round trip (radio active the whole
  /// time); mirrors mobile_device::account_offload.
  void account_offload(user_id u, util::time_ms active_ms) noexcept {
    const double drained =
        battery_[u] - active_ms * profiles_[class_[u]].radio_drain_per_ms;
    battery_[u] = drained > 0.0 ? drained : 0.0;
  }
  /// Mirrors mobile_device::account_local_run.
  void account_local_run(user_id u, double work_units) noexcept {
    const double drained =
        battery_[u] - work_units * profiles_[class_[u]].cpu_drain_per_wu;
    battery_[u] = drained > 0.0 ? drained : 0.0;
  }
  // mca:hot-path-end

 private:
  std::vector<double> battery_;
  std::vector<std::uint8_t> class_;
  device_profile profiles_[4];
};

}  // namespace mca::client
