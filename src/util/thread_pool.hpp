// Minimal fixed-size thread pool with a parallel_for helper.  The serving
// cluster runs its request workers and segment-store chunk compression on
// pools, the feature indexes split exact rescoring over one, and the fleet
// simulator steps its devices on one.  Deterministic: the work partition is
// static, so results are identical to the serial path.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bees::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; it may run on any worker.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.  If any task threw,
  /// rethrows the first captured exception.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs fn(begin, end) for each contiguous chunk of [0, n) across the
  /// pool, blocking until done.  One chunk goes to each worker.  The
  /// partition depends only on n and thread_count() — never on runtime
  /// timing — so results match the serial path exactly.  Chunk
  /// granularity lets callers hoist per-worker state (e.g. a
  /// feat::MatchWorkspace) out of the per-index loop.
  template <typename Fn>
  void parallel_for_chunks(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    const std::size_t chunks = std::min(n, thread_count());
    const std::size_t per_chunk = (n + chunks - 1) / chunks;
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(begin + per_chunk, n);
      submit([begin, end, &fn] { fn(begin, end); });
    }
    wait_idle();
  }

  /// Runs fn(i) for i in [0, n) across the pool, blocking until done.
  /// Same deterministic partition as parallel_for_chunks.  The callable is
  /// invoked directly (no std::function indirection), letting the compiler
  /// inline per-index bodies.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    parallel_for_chunks(n, [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
};

}  // namespace bees::util
