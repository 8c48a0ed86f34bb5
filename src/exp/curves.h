// Single-server load curves — the warm-up/measure loop that used to be
// copy-pasted across the figure benches (Fig. 5 per-level curves, Fig. 7c
// stability curves), folded into the experiment runner.
//
// One instance of `type_name` faces `rounds` concurrent bursts at each
// load level; the response summary per level forms the curve.  Levels
// run serially, and each draws from its own rng::split stream, so a
// level's summary does not depend on which levels ran before it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tasks/task.h"
#include "util/stats.h"

namespace mca::exp {

struct load_curve_point {
  std::size_t users = 0;
  util::summary response;
};

/// The curve visits the paper's load levels (core::kPaperLoadLevels).
struct load_curve_config {
  std::size_t rounds = 6;
  std::uint64_t seed = 5'000;
};

/// Response-vs-concurrent-users curve of one instance type under a fixed
/// request (Fig. 5 / Fig. 7c methodology: bursts with 1-minute
/// cool-downs).  Throws std::invalid_argument on an unknown type name.
std::vector<load_curve_point> response_vs_users(
    const std::string& type_name, tasks::task_request request,
    const load_curve_config& config);

}  // namespace mca::exp
