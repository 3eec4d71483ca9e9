#include "util/thread_pool.hpp"

namespace ranknet::util {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::deque<std::function<void()>> abandoned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Abandon the not-yet-started backlog (bounded-wait teardown, see
    // header). Destroying a packaged_task breaks its promise, which is how
    // the abandonment is reported — destroy outside the lock since future
    // continuations could be arbitrary code.
    abandoned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  abandoned.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // backlog was abandoned by the destructor
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // submit() routes exceptions into the task's future; this guard only
    // fires for a raw callable that leaks one. Letting it escape here would
    // std::terminate the process — count it and keep the worker alive.
    try {
      task();
    } catch (...) {
      escaped_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace ranknet::util
