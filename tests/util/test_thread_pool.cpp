#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace bees::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> values(10000);
  pool.parallel_for(values.size(), [&](std::size_t i) {
    values[i] = static_cast<long>(i) * 2;
  });
  const long sum = std::accumulate(values.begin(), values.end(), 0L);
  EXPECT_EQ(sum, 9999L * 10000L);  // 2 * n(n-1)/2
}

TEST(ThreadPool, ParallelForTakesMutableCallableByReference) {
  // The templated overload must not copy the callable per chunk: a
  // mutable-state lambda observed through a reference still works because
  // chunks are disjoint (each index is touched exactly once).
  ThreadPool pool(1);  // single worker -> sequential chunks
  std::size_t calls = 0;
  auto fn = [&calls](std::size_t) { ++calls; };
  pool.parallel_for(25, fn);
  EXPECT_EQ(calls, 25u);
}

TEST(ThreadPool, ExceptionPropagatesFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool remains usable after a failure.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManySmallBatchesStress) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 50L * (63 * 64 / 2));
}

TEST(ThreadPool, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace bees::util
