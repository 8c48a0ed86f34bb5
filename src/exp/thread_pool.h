// Work-stealing thread pool for the experiment runner.
//
// Replication sweeps are embarrassingly parallel but uneven: an 8-hour
// closed-loop simulation can take several times longer than its sibling
// under a different seed (promotion cascades grow the fleet and the
// background-load fan-out with it).  A single shared queue would serialize
// dispatch; static partitioning would leave workers idle behind one slow
// shard.  Each worker therefore owns a deque — it pushes and pops at the
// front, and idle workers steal from the *back* of a victim's deque, so
// the oldest (statistically largest remaining) tasks migrate first.
//
// The pool executes tasks; it knows nothing about replications or
// determinism.  Tasks must not throw — the replication runner catches
// per-replication exceptions before they reach the pool (runner.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mca::obs {
class tracer;
}

namespace mca::exp {

/// Pool telemetry snapshot (monotonic since construction).  `executed` is
/// exact; `steals`/`idle_waits` depend on scheduling and are reported
/// through the observability registry as scheduling-dependent counters.
struct pool_counters {
  /// Tasks run.  Counted when a worker claims the task, before it runs:
  /// parallel_for returns as soon as its last task body finishes, so a
  /// count taken after the body would race the caller's next read.
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;      ///< tasks taken from another worker's deque
  std::uint64_t idle_waits = 0;  ///< times a worker blocked for work
};

class thread_pool {
 public:
  using task = std::function<void()>;

  /// Spawns `workers` threads (0 means hardware_workers()).
  explicit thread_pool(std::size_t workers = 0);
  /// Drains remaining tasks, then joins every worker.
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Enqueues a task; round-robins across worker deques so independent
  /// submissions start spread out even before any stealing happens.
  /// Throws std::invalid_argument on an empty task.
  void post(task fn);

  /// Blocks until every task posted so far has finished executing.
  void wait_idle();

  std::size_t worker_count() const noexcept { return queues_.size(); }
  /// Tasks stolen from another worker's deque (for tests/telemetry).
  std::size_t steal_count() const noexcept;
  /// Full telemetry snapshot (executed / steals / idle waits).
  pool_counters counters() const noexcept;

  /// Attaches a tracer: worker `w` records its idle gaps as pool_idle
  /// spans into `tracer->ring(ring_base + w)` (one ring per worker, single
  /// writer).  Call only while the pool is idle; nullptr detaches.
  void set_observability(obs::tracer* tracer, std::size_t ring_base);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_workers() noexcept;

 private:
  struct worker_queue;

  void worker_loop(std::size_t self);
  bool try_acquire(std::size_t self, task& out);

  std::vector<std::unique_ptr<worker_queue>> queues_;
  std::vector<std::thread> threads_;

  mutable std::mutex state_mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::size_t pending_ = 0;  ///< queued + currently executing
  /// Net (pushed - claimed) deque entries.  Signed: a claim's decrement
  /// may land before the same task's post-push increment, so the counter
  /// can dip below zero transiently (see post()).
  std::ptrdiff_t queued_ = 0;
  std::size_t next_queue_ = 0;
  std::size_t steals_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t idle_waits_ = 0;
  obs::tracer* tracer_ = nullptr;  ///< read under state_mutex_
  std::size_t trace_ring_base_ = 0;
  bool stopping_ = false;
};

/// Runs fn(0) .. fn(n - 1) on the pool and blocks until all complete.
/// `fn` must not throw (wrap it if it can — see runner.h).
template <typename Fn>
void parallel_for(thread_pool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  std::latch done{static_cast<std::ptrdiff_t>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    pool.post([&fn, &done, i] {
      fn(i);
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace mca::exp
