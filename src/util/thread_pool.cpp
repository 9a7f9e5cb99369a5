#include "util/thread_pool.hpp"

#include <algorithm>

namespace bees::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Completion::finish(std::exception_ptr error) {
  std::scoped_lock lock(mutex_);
  if (error && !error_) error_ = std::move(error);
  if (--remaining_ == 0) done_.notify_all();
}

void ThreadPool::Completion::wait() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this] { return remaining_ == 0; });
  if (error_) std::rethrow_exception(error_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace bees::util
