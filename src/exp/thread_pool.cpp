#include "exp/thread_pool.h"

#include "obs/tracer.h"

namespace mca::exp {

std::size_t thread_pool::hardware_workers() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

thread_pool::thread_pool(std::size_t workers) {
  if (workers == 0) workers = hardware_workers();
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void thread_pool::run(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::unique_lock lock{mutex_};
  batch_done_.wait(lock, [this] { return body_ == nullptr; });
  body_ = &body;
  size_ = n;
  next_ = 0;
  unfinished_ = n;
  work_ready_.notify_all();
  batch_done_.wait(lock, [this] { return unfinished_ == 0; });
  body_ = nullptr;
  size_ = 0;
  next_ = 0;
  batch_done_.notify_all();  // admits the next queued caller, if any
}

void thread_pool::worker_loop(std::size_t self) {
  std::unique_lock lock{mutex_};
  for (;;) {
    if (stopping_) return;
    if (next_ < size_) {
      const std::size_t index = next_++;
      ++executed_;
      const std::function<void(std::size_t)>& body = *body_;
      lock.unlock();
      body(index);
      lock.lock();
      if (--unfinished_ == 0) batch_done_.notify_all();
      continue;
    }
    ++idle_waits_;
    obs::tracer* const tracer = tracer_;
    const std::size_t ring = trace_ring_base_ + self;
    const double idle_from = tracer != nullptr ? tracer->now_us() : 0.0;
    work_ready_.wait(lock, [this] { return stopping_ || next_ < size_; });
    if (tracer != nullptr) {
      obs::span_record span;
      span.kind = obs::span_kind::pool_idle;
      span.wall_start_us = idle_from;
      span.wall_dur_us = tracer->now_us() - idle_from;
      span.arg_a = self;
      tracer->ring(ring).push(span);
    }
  }
}

pool_counters thread_pool::counters() const noexcept {
  std::lock_guard lock{mutex_};
  return {executed_, idle_waits_};
}

void thread_pool::set_observability(obs::tracer* tracer,
                                    std::size_t ring_base) {
  std::lock_guard lock{mutex_};
  tracer_ = tracer;
  trace_ring_base_ = ring_base;
}

}  // namespace mca::exp
