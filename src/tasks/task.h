// The offloadable task pool as a cost table.
//
// The paper's simulator offloads "common algorithms found in apps, e.g.,
// quicksort, bubblesort" plus the minimax routine used as the static
// benchmark load, and consumes each only as "the processing required for
// each task" (§V).  A task here is therefore one row: a name, the sizes the
// workload may request, and an analytic cost in *work units*.  By
// convention 1 work unit costs 1 ms on the reference core (speed factor
// 1.0, the t2 baseline core); each row's formula is tuned to the paper's
// figures, not measured from a kernel.
//
// A task's `size` parameter is task-specific (search depth, element count,
// matrix dimension, ...); random draws stay in [min_size, max_size], and
// `default_size` reproduces the paper's "static input" runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/rng.h"

namespace mca::tasks {

/// One offloadable algorithm: a row of the pool's cost table.
struct task {
  /// Stable identifier, e.g. "minimax".
  std::string_view name;
  /// The paper's static-input size for this task.
  std::uint32_t default_size;
  /// Smallest / largest size the random workload generator may draw.
  std::uint32_t min_size;
  std::uint32_t max_size;
  /// Random draws round down to a power of two (FFT inputs).
  bool power_of_two_sizes;
  /// Analytic cost at `size` in work units (1 wu = 1 ms on the reference
  /// core).
  double (*work_units)(std::uint32_t size) noexcept;
};

/// A concrete unit of offloadable work: which algorithm and what input size.
struct task_request {
  const task* algorithm = nullptr;
  std::uint32_t size = 0;

  double work_units() const noexcept {
    return algorithm == nullptr ? 0.0 : algorithm->work_units(size);
  }
};

/// The paper's pool of 10 independent tasks: a view over one constant table.
class task_pool {
 public:
  std::size_t size() const noexcept;
  /// Throws std::out_of_range on a bad index.
  const task& at(std::size_t i) const;

  /// Draws a uniformly random task and a size by `request_for`'s law
  /// ("each request ... is taken randomly from the pool; the processing
  /// required for each task is also determined randomly").
  task_request random_request(util::rng& rng) const;

  /// A request for pool task `index`, its size drawn uniformly from
  /// [min_size, max_size] (the size rule shared by every mix).  A
  /// `power_of_two_sizes` task then rounds down to a power of two, so FFT's
  /// 2^14, 2^15 and 2^16 come up with probability 1/7, 2/7 and 4/7, and
  /// 2^17 with ≈ 8.7e-6.  Throws std::out_of_range on a bad index.
  task_request request_for(std::size_t index, util::rng& rng) const;

  /// The paper's static benchmark request: minimax at its default size.
  task_request static_minimax_request() const;
};

}  // namespace mca::tasks
