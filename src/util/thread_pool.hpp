// Minimal fixed-size fork-join thread pool: parallel_for splits [0, n)
// over the workers and waits for its own chunks.  A feature index that
// asks for one splits exact rescoring over it, and the fleet simulator
// steps its devices on one.  Deterministic: the work partition is static,
// so results are identical to the serial path.
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
  /// Joins the workers; no parallel_for call may still be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs fn(begin, end) for each contiguous chunk of [0, n) across the
  /// pool, blocking until done.  One chunk goes to each worker.  The
  /// partition depends only on n and thread_count() — never on runtime
  /// timing — so results match the serial path exactly.  Chunk
  /// granularity lets callers hoist per-worker state (e.g. a
  /// feat::MatchWorkspace) out of the per-index loop.
  ///
  /// Concurrent calls may share one pool: each call waits for its own
  /// chunks only, and rethrows the first exception one of *its* chunks
  /// threw.  Calling it from a task of the same pool can deadlock.
  template <typename Fn>
  void parallel_for_chunks(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    const std::size_t chunks = std::min(n, thread_count());
    const std::size_t per_chunk = (n + chunks - 1) / chunks;
    Completion completion((n + per_chunk - 1) / per_chunk);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(begin + per_chunk, n);
      submit([begin, end, &fn, &completion] {
        std::exception_ptr error;
        try {
          fn(begin, end);
        } catch (...) {
          error = std::current_exception();
        }
        completion.finish(error);
      });
    }
    completion.wait();
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
  /// One parallel_for_chunks call's outstanding chunk count and first
  /// chunk exception.  It lives on the caller's stack, so finish() notifies
  /// under the lock: the caller cannot return and destroy it before the
  /// last chunk is done touching it.
  class Completion {
   public:
    explicit Completion(std::size_t chunks) : remaining_(chunks) {}
    void finish(std::exception_ptr error);
    /// Blocks until every chunk finished; rethrows the first chunk error.
    void wait();

   private:
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t remaining_;
    std::exception_ptr error_;
  };

  /// Enqueues a chunk; it may run on any worker and must not throw.
  void submit(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
};

}  // namespace bees::util
