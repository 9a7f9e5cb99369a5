#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bees::util {
namespace {

// Long enough for a loaded sanitizer run; a pool that makes one caller
// wait on another's chunks misses it instead of hanging the suite.
constexpr auto kReturnBound = std::chrono::seconds(10);

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 100; ++i) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        [&counter] { counter.fetch_add(1); });
    done.push_back(task->get_future());
    pool.submit([task] { (*task)(); });
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 100);
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

TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnChunks) {
  ThreadPool pool(2);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> a_released = release_a.get_future().share();
  // Caller A's only chunk holds one worker until released.
  std::future<void> a = std::async(std::launch::async, [&] {
    pool.parallel_for_chunks(1, [&](std::size_t, std::size_t) {
      a_started.set_value();
      a_released.wait();
    });
  });
  a_started.get_future().wait();

  // Caller B's chunk runs on the other worker; B must not wait for A's.
  std::atomic<int> b_hits{0};
  std::future<void> b = std::async(std::launch::async, [&] {
    pool.parallel_for(1, [&](std::size_t) { b_hits.fetch_add(1); });
  });
  EXPECT_EQ(b.wait_for(kReturnBound), std::future_status::ready);

  release_a.set_value();
  a.get();
  b.get();
  EXPECT_EQ(b_hits.load(), 1);
}

TEST(ThreadPool, ParallelForExceptionReachesOnlyItsCaller) {
  ThreadPool pool(2);
  std::promise<void> a_started, b_started, release_a, release_b;
  std::shared_future<void> a_released = release_a.get_future().share();
  std::shared_future<void> b_released = release_b.get_future().share();
  // Both callers' chunks occupy a worker each, so A's chunk throws while
  // B's call is still in flight.
  std::future<void> a = std::async(std::launch::async, [&] {
    pool.parallel_for_chunks(1, [&](std::size_t, std::size_t) {
      a_started.set_value();
      a_released.wait();
      throw std::runtime_error("chunk of A failed");
    });
  });
  a_started.get_future().wait();
  std::future<void> b = std::async(std::launch::async, [&] {
    pool.parallel_for_chunks(1, [&](std::size_t, std::size_t) {
      b_started.set_value();
      b_released.wait();
    });
  });
  b_started.get_future().wait();

  release_a.set_value();
  EXPECT_EQ(a.wait_for(kReturnBound), std::future_status::ready);
  release_b.set_value();
  EXPECT_NO_THROW(b.get());
  EXPECT_THROW(a.get(), std::runtime_error);

  // The pool remains usable after a failure.
  std::atomic<int> counter{0};
  pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
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
  }  // destructor runs the queued tasks, then joins
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace bees::util
