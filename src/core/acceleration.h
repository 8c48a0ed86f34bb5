// Acceleration groups: the paper's central abstraction.
//
// "The model encapsulates the servers of the cloud into acceleration
// groups.  Each a_n is mapped to a set of servers that provide a specific
// level of code acceleration."  Group ids follow the paper's numbering:
// group 0 is the demoted anomaly group (t2.micro), 1 is the slowest
// regular level, rising from there.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/ids.h"

namespace mca::core {

/// One point of a characterization curve (Fig. 4): response-time summary
/// at a given concurrent-user load.
struct load_point {
  std::size_t users = 0;
  double mean_ms = 0.0;
  double stddev_ms = 0.0;
  double p5_ms = 0.0;
  double p95_ms = 0.0;
};

/// Benchmark profile of one instance type.
struct type_characterization {
  std::string type_name;
  double cost_per_hour = 0.0;
  std::vector<load_point> curve;
  /// Largest tested concurrent-user level whose mean response time stayed
  /// under the administrator's bound ("a small instance handles a maximum
  /// of 30 users under 500 milliseconds").
  std::size_t capacity_users = 0;
  /// Ks of §IV-C: requests per minute the instance absorbs under the
  /// bound.  In the paper's concurrent benchmark each user issues one
  /// request per minute, so Ks numerically equals capacity_users.
  double capacity_requests_per_min = 0.0;
  /// Mean response time with a single user (solo speed).
  double solo_mean_ms = 0.0;
};

/// One acceleration group: the instance types that provide this level.
struct acceleration_group {
  group_id id = 0;
  std::vector<std::string> type_names;
  /// Representative per-instance capacity (users under the bound).
  double capacity_users = 0.0;
  /// Representative solo response time of the level.
  double solo_mean_ms = 0.0;
};

/// The classifier's output: groups indexed from 0 (anomaly) upward.
class acceleration_map {
 public:
  explicit acceleration_map(std::vector<acceleration_group> groups);

  std::size_t group_count() const noexcept { return groups_.size(); }
  /// Groups in id order: groups()[id] is group `id`.
  const std::vector<acceleration_group>& groups() const noexcept {
    return groups_;
  }

  /// Group of an instance type; throws std::out_of_range when unknown.
  group_id group_of(const std::string& type_name) const;

  /// Highest group id (the fastest level).
  group_id max_group() const;

 private:
  std::vector<acceleration_group> groups_;
};

}  // namespace mca::core
