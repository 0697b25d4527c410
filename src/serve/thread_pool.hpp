// A fixed-size worker pool — the repo's first real (non-simulated)
// concurrency. The workflow module *models* worker pools for scheduling
// research; this one actually runs std::threads so the serving layer can
// overlap batch execution with batch formation and admission.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace everest::serve {

/// Fixed-size pool executing submitted closures FIFO. Destruction drains
/// the queue, then joins.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues work; runs on some pool thread. Must not be called after
  /// shutdown() (asserts via the stopped flag).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished and the queue is
  /// empty. Safe to call repeatedly; new work may be submitted after.
  void wait_idle();

  /// Drains outstanding work and joins all threads (idempotent).
  void shutdown();

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }
  /// Tasks queued but not yet started (for metrics/backpressure signals).
  [[nodiscard]] std::size_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: task or stop
  std::condition_variable idle_cv_;   // signals wait_idle(): all drained
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace everest::serve
