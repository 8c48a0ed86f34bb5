// Performance-based characterization of cloud servers (§VI-A, §IV-C.1).
//
// For each instance type, a fresh simulated server is stressed with the
// concurrent-mode workload (bursts of n simultaneous random-pool requests,
// one burst per minute of cool-down) at rising load levels.  The largest
// level whose mean response time stays under the administrator's bound
// (default 500 ms) is the type's capacity; types are then sorted by
// capacity and clustered into acceleration groups:
//
//  * same capacity bucket  -> same group ("instances with the same
//    capacity are assigned to the same group");
//  * inside a bucket, a clearly faster solo response splits a new, higher
//    level (how c4.8xlarge "surpassed our previous acceleration levels"
//    and became level 4);
//  * a type beaten on capacity or high-load latency by a strictly cheaper
//    type is demoted to group 0 — the paper's t2.nano/t2.micro anomaly
//    handling ("we assigned a micro server in a lower acceleration level
//    (group 0)").
#pragma once

#include <iterator>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "cloud/instance_type.h"
#include "core/acceleration.h"
#include "tasks/task.h"

namespace mca::core {

/// The paper's concurrent-user load levels: 1 and 10..100 step 10.
inline constexpr std::size_t kPaperLoadLevels[] = {1,  10, 20, 30, 40, 50,
                                                   60, 70, 80, 90, 100};

/// Knobs of the characterization methodology (§VI-A.1 defaults).  Bursts
/// are one minute apart (workload::concurrent_config's default cool-down),
/// and two types in one capacity bucket split into different groups when
/// their solo means differ by more than 15%.
struct classifier_config {
  /// Administrator's minimum level of acceleration: the response bound.
  double response_bound_ms = 500.0;
  /// Concurrent-user levels to test.
  std::vector<std::size_t> load_levels{std::begin(kPaperLoadLevels),
                                       std::end(kPaperLoadLevels)};
  /// Bursts per load level (the paper runs 3 h per server; a handful of
  /// bursts per level already gives stable means in simulation).
  std::size_t rounds_per_level = 5;
  /// RNG seed for workload draws and service jitter.
  std::uint64_t seed = 1234;
  /// Optional t2 CPU-credit model during characterization.
  cloud::instance::options instance_options{};
};

/// Benchmarks one instance type (one simulated server, all load levels).
type_characterization characterize_type(const cloud::instance_type& type,
                                        const tasks::task_pool& pool,
                                        const classifier_config& config);

/// Benchmarks and clusters a catalog into acceleration groups.  Group 0 is
/// emitted (possibly empty) for demoted anomalies; regular levels start
/// at 1, ordered by rising capability.
acceleration_map classify(std::span<const cloud::instance_type> types,
                          const tasks::task_pool& pool,
                          const classifier_config& config);

}  // namespace mca::core
