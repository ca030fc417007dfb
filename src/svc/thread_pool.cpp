#include "svc/thread_pool.hpp"

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace edgesched::svc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) {
      num_threads = 1;
    }
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::post(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    throw_if(!accepting_, "ThreadPool::submit: pool is shut down");
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [this]() { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) {
        return;  // shutting down and fully drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      obs::Span span("svc/job", "svc");
      job();  // exceptions are captured by the packaged_task wrapper
    }
    obs::hot_counters().pool_jobs.increment();
  }
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_ && workers_.empty()) {
      return;  // already shut down
    }
    accepting_ = false;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

}  // namespace edgesched::svc
