// EC2-like instance-type catalog.
//
// This is the calibration surface of the cloud simulator: each type carries
// the published vCPU/memory/price numbers (Amazon EC2 Ireland, 2016-era, as
// used by the paper) plus the behavioural parameters of our service model:
//
//  * `cost_per_hour` — the on-demand price as `util::money`: every listed
//    price is a whole number of $0.0001, so prices and bills sum exactly.
//  * `speed_factor` — work units per millisecond per core, relative to the
//    reference t2 core (1.0).  Chosen so the acceleration-level ratios the
//    paper measures (L2/L1 ≈ 1.25, L3/L1 ≈ 1.73, L4 above L3) fall out of
//    the catalog.
//  * `jitter_sigma` — lognormal service-time noise (multi-tenant wobble).
//  * `steal_max` — asymptotic CPU-steal fraction under load; nonzero only
//    for t2.micro, reproducing the paper's Fig. 6 anomaly where the
//    nominally stronger micro underperforms the nano.
//  * `baseline_fraction` — t2 CPU-credit baseline share (1.0 = never
//    throttles).  The credit model is off by default (the paper's runs show
//    no credit exhaustion thanks to cool-down gaps) and exercised by the
//    ablation bench.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/money.h"

namespace mca::cloud {

/// Static description of a purchasable server type.
struct instance_type {
  std::string name;
  double vcpus = 1.0;
  double memory_gb = 1.0;
  util::money cost_per_hour = 0;   ///< on-demand, $0.0001 per started hour
  double speed_factor = 1.0;       ///< wu/ms per core (reference core = 1.0)
  double jitter_sigma = 0.08;      ///< lognormal sigma of service noise
  double steal_max = 0.0;          ///< asymptotic stolen CPU fraction
  double baseline_fraction = 1.0;  ///< t2 credit baseline share of all cores

  /// Maximum simultaneous dalvikvm processes (memory-bound); requests
  /// beyond this are dropped, which is what saturates Fig. 8c.
  std::size_t max_concurrent() const noexcept;
};

/// Work units charged per request for dalvikvm process spawn (the paper's
/// one-process-per-request surrogate design).
inline constexpr double k_spawn_overhead_wu = 8.0;

/// The catalog used throughout the paper's evaluation: the six general
/// purpose types of Fig. 4 plus m4.4xlarge (Fig. 9) and c4.8xlarge (the
/// level-4 addition of Fig. 7).
const std::vector<instance_type>& ec2_catalog();

/// Looks up a catalog entry; throws std::out_of_range for unknown names.
const instance_type& type_by_name(std::string_view name);

}  // namespace mca::cloud
