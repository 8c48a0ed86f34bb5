#include "exp/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace mca::exp {
namespace {

TEST(ThreadPool, WorkerCountClampsToAtLeastOne) {
  thread_pool pool{0};  // 0 = hardware_workers(), itself floored at 1
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_GE(thread_pool::hardware_workers(), 1u);
}

TEST(ThreadPool, TasksRunOnPoolThreadsNotCaller) {
  thread_pool pool{2};
  const auto caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(pool, 32, [&](std::size_t) {
    std::lock_guard lock{mutex};
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_FALSE(ids.contains(caller));
  EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  thread_pool pool{4};
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  thread_pool pool{2};
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PoolIsReusableAcrossWaves) {
  thread_pool pool{3};
  std::atomic<int> total{0};
  for (int wave = 0; wave < 5; ++wave) {
    parallel_for(pool, 40, [&total](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, OneSlowIndexDoesNotHoldBackTheRest) {
  // Index 0 blocks until every other index has run.  Workers claim the
  // next unclaimed index, so the second worker drains 1..n-1 while the
  // first waits; a static split would park half of them behind index 0
  // and the bounded wait would time out instead of hanging.
  constexpr std::size_t n = 16;
  thread_pool pool{2};
  std::mutex mutex;
  std::condition_variable others_done;
  std::size_t finished = 0;
  bool released = false;
  parallel_for(pool, n, [&](std::size_t i) {
    std::unique_lock lock{mutex};
    if (i == 0) {
      released = others_done.wait_for(lock, std::chrono::seconds{10},
                                      [&] { return finished == n - 1; });
    } else if (++finished == n - 1) {
      others_done.notify_all();
    }
  });
  EXPECT_TRUE(released);
  EXPECT_EQ(finished, n - 1);
}

TEST(ThreadPool, SingleWorkerRunsIndicesInAscendingOrder) {
  thread_pool pool{1};
  std::vector<std::size_t> order;
  parallel_for(pool, 64, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.counters().executed, 64u);
}

TEST(ThreadPool, ConcurrentCallersEachGetTheirWholeBatch) {
  thread_pool pool{3};
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  std::thread other{[&] {
    parallel_for(pool, 50, [&second](std::size_t) { second.fetch_add(1); });
  }};
  parallel_for(pool, 70, [&first](std::size_t) { first.fetch_add(1); });
  other.join();
  EXPECT_EQ(first.load(), 70);
  EXPECT_EQ(second.load(), 50);
  EXPECT_EQ(pool.counters().executed, 120u);
}

TEST(ThreadPool, CountersReportExactExecutedTotal) {
  thread_pool pool{4};
  EXPECT_EQ(pool.counters().executed, 0u);
  parallel_for(pool, 100, [](std::size_t) {});
  parallel_for(pool, 57, [](std::size_t) {});
  EXPECT_EQ(pool.counters().executed, 157u);
}

}  // namespace
}  // namespace mca::exp
