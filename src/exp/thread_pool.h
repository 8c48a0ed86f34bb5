// Batch thread pool for the experiment runner.
//
// Every caller hands the pool one batch — run fn(0) .. fn(n - 1) — and
// blocks until it finishes (parallel_for below).  Replication sweeps and
// fleet shard rounds are uneven: an 8-hour closed-loop simulation can take
// several times longer than its sibling under a different seed, so indices
// are not partitioned up front.  Workers claim the next unclaimed index
// instead; a worker that finishes early simply claims again, and one slow
// index never holds back the rest.  The next index is the only state the
// simulations of a batch share.
//
// The pool executes indices; it knows nothing about replications or
// determinism.  Bodies must not throw — the replication runner catches
// per-replication exceptions before they reach the pool (runner.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mca::obs {
class tracer;
}

namespace mca::exp {

/// Pool telemetry snapshot (monotonic since construction).  `executed` is
/// exact; `idle_waits` depends on scheduling and is reported through the
/// observability registry as a scheduling-dependent counter.
struct pool_counters {
  /// Indices run.  Counted when a worker claims the index, before it runs:
  /// parallel_for returns as soon as its last body finishes, so a count
  /// taken after the body would race the caller's next read.
  std::uint64_t executed = 0;
  std::uint64_t idle_waits = 0;  ///< times a worker blocked for work
};

class thread_pool {
 public:
  /// Spawns `workers` threads (0 means hardware_workers()).
  explicit thread_pool(std::size_t workers = 0);
  /// Joins every worker (no batch can be outstanding: run() blocks).
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Runs body(0) .. body(n - 1) on the workers, claimed in ascending
  /// order, and blocks until every call returned.  Concurrent callers run
  /// their batches one after another; a body must not call run() on its
  /// own pool.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  std::size_t worker_count() const noexcept { return threads_.size(); }
  /// Full telemetry snapshot (executed / idle waits).
  pool_counters counters() const noexcept;

  /// Attaches a tracer: worker `w` records its idle gaps as pool_idle
  /// spans into `tracer->ring(ring_base + w)` (one ring per worker, single
  /// writer).  Call only while the pool is idle; nullptr detaches.
  void set_observability(obs::tracer* tracer, std::size_t ring_base);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_workers() noexcept;

 private:
  void worker_loop(std::size_t self);

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  /// The current batch; nullptr between batches.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t size_ = 0;
  std::size_t next_ = 0;        ///< next unclaimed index
  std::size_t unfinished_ = 0;  ///< indices of the batch not yet finished
  std::uint64_t executed_ = 0;
  std::uint64_t idle_waits_ = 0;
  obs::tracer* tracer_ = nullptr;
  std::size_t trace_ring_base_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< last: workers use every member
};

/// Runs fn(0) .. fn(n - 1) on the pool and blocks until all complete.
/// `fn` must not throw (wrap it if it can — see runner.h).
template <typename Fn>
void parallel_for(thread_pool& pool, std::size_t n, Fn&& fn) {
  pool.run(n, [&fn](std::size_t i) { fn(i); });
}

}  // namespace mca::exp
