// Fixed-size worker pool with a FIFO work queue.
//
// The pool is the execution substrate of the service layer: the
// scheduler service (svc/scheduler_service.hpp) and the parallel sweep
// runner (sim/runner.hpp) both fan work out over it. Design points:
//
//   * fixed worker count chosen at construction — scheduling work is
//     CPU-bound, so elastic growth would only add contention;
//   * `submit` wraps any nullary callable in a std::packaged_task, so
//     results *and exceptions* travel to the caller through the returned
//     std::future;
//   * graceful shutdown: `shutdown()` (and the destructor) stop accepting
//     new work, let the workers drain everything already queued, then
//     join. Work submitted before shutdown is never dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace edgesched::svc {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Stops accepting work, drains the queue, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a nullary callable and returns a future of its result. The
  /// callable's return value or thrown exception is delivered through the
  /// future. Throws std::invalid_argument after shutdown().
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using Result = std::invoke_result_t<F&>;
    // std::function requires copyable targets, so the move-only
    // packaged_task rides in a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::move(fn));
    std::future<Result> future = task->get_future();
    post([task]() { (*task)(); });
    return future;
  }

  /// Stops accepting new work, waits for queued work to finish, joins all
  /// workers. Idempotent; called by the destructor.
  void shutdown();

  /// Number of worker threads.
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

 private:
  void post(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool accepting_ = true;
};

}  // namespace edgesched::svc
