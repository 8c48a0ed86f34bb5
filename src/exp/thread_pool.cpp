#include "exp/thread_pool.h"

#include <stdexcept>
#include <utility>

#include "obs/tracer.h"

namespace mca::exp {

/// One worker's deque.  The owner pushes/pops at the front; thieves take
/// from the back.  A plain mutex per deque is plenty here: tasks are whole
/// simulations (milliseconds to seconds), so queue traffic is cold.
struct thread_pool::worker_queue {
  std::mutex mutex;
  std::deque<task> tasks;
};

std::size_t thread_pool::hardware_workers() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

thread_pool::thread_pool(std::size_t workers) {
  if (workers == 0) workers = hardware_workers();
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<worker_queue>());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

thread_pool::~thread_pool() {
  wait_idle();
  {
    std::lock_guard lock{state_mutex_};
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void thread_pool::post(task fn) {
  if (!fn) throw std::invalid_argument{"thread_pool: empty task"};
  std::size_t target = 0;
  {
    std::lock_guard lock{state_mutex_};
    // pending_ rises before the task is reachable, so a racing completion
    // can never drive it through zero and release wait_idle() early.
    ++pending_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard lock{queues_[target]->mutex};
    queues_[target]->tasks.push_front(std::move(fn));
  }
  // queued_ rises only after the task is actually in a deque: a worker
  // whose wait predicate sees queued_ > 0 is guaranteed to find work on
  // its sweep (no busy re-sweeping against a not-yet-pushed task).  The
  // notify follows the increment, so a worker that went to sleep between
  // this push and this increment is re-woken here.  State and deque locks
  // are never held together, so there is no lock cycle with try_acquire.
  {
    std::lock_guard lock{state_mutex_};
    ++queued_;
  }
  work_ready_.notify_one();
}

bool thread_pool::try_acquire(std::size_t self, task& out) {
  const auto claim = [this](worker_queue& queue, bool steal,
                            task& slot) {
    std::lock_guard lock{queue.mutex};
    if (queue.tasks.empty()) return false;
    if (steal) {
      slot = std::move(queue.tasks.back());
      queue.tasks.pop_back();
    } else {
      slot = std::move(queue.tasks.front());
      queue.tasks.pop_front();
    }
    return true;
  };

  if (claim(*queues_[self], false, out)) {
    std::lock_guard state{state_mutex_};
    --queued_;
    ++executed_;
    return true;
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    if (claim(*queues_[(self + offset) % queues_.size()], true, out)) {
      std::lock_guard state{state_mutex_};
      --queued_;
      ++executed_;
      ++steals_;
      return true;
    }
  }
  return false;
}

void thread_pool::worker_loop(std::size_t self) {
  for (;;) {
    task fn;
    if (try_acquire(self, fn)) {
      fn();
      std::lock_guard lock{state_mutex_};
      if (--pending_ == 0) all_idle_.notify_all();
      continue;
    }
    std::unique_lock lock{state_mutex_};
    // `queued_ > 0` re-checked under the lock closes the lost-wakeup
    // window between a failed sweep and the wait: a task enqueued in that
    // window leaves the counter positive, so the wait falls straight
    // through and the sweep runs again.  (A sweep can still come back
    // empty if a sibling claimed the task first — that is just another
    // pass through the loop.)
    if (!stopping_ && queued_ <= 0) {
      ++idle_waits_;
      obs::tracer* const tracer = tracer_;
      const std::size_t ring = trace_ring_base_ + self;
      const double idle_from = tracer != nullptr ? tracer->now_us() : 0.0;
      work_ready_.wait(lock, [this] { return stopping_ || queued_ > 0; });
      if (tracer != nullptr) {
        obs::span_record span;
        span.kind = obs::span_kind::pool_idle;
        span.wall_start_us = idle_from;
        span.wall_dur_us = tracer->now_us() - idle_from;
        span.arg_a = self;
        tracer->ring(ring).push(span);
      }
    }
    if (stopping_) return;
  }
}

void thread_pool::wait_idle() {
  std::unique_lock lock{state_mutex_};
  all_idle_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t thread_pool::steal_count() const noexcept {
  std::lock_guard lock{state_mutex_};
  return steals_;
}

pool_counters thread_pool::counters() const noexcept {
  std::lock_guard lock{state_mutex_};
  return {executed_, static_cast<std::uint64_t>(steals_), idle_waits_};
}

void thread_pool::set_observability(obs::tracer* tracer,
                                    std::size_t ring_base) {
  std::lock_guard lock{state_mutex_};
  tracer_ = tracer;
  trace_ring_base_ = ring_base;
}

}  // namespace mca::exp
