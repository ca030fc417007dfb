#include "util/parallel_for.hpp"

namespace edgesched::util {

namespace {

// Brief spin before blocking: a scheduling run dispatches one scan per
// task, so the wait between dispatches is usually shorter than a
// sleep/wake cycle. Kept small — on an oversubscribed machine spinning
// longer only steals cycles from the lane that should be running.
constexpr int kSpinIterations = 256;

}  // namespace

WorkerTeam::WorkerTeam(std::size_t lanes) {
  if (lanes <= 1) {
    return;
  }
  workers_.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

WorkerTeam::~WorkerTeam() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  dispatch_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

void WorkerTeam::capture_exception() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!first_exception_) {
    first_exception_ = std::current_exception();
  }
}

void WorkerTeam::run_lane(std::size_t lane, const Body& body) {
  const ChunkRange chunk = static_chunk(items_, lanes(), lane);
  if (chunk.empty()) {
    return;
  }
  try {
    body(lane, chunk.begin, chunk.end);
  } catch (...) {
    capture_exception();
  }
}

void WorkerTeam::run(std::size_t n, const Body& body) {
  if (workers_.empty() || n == 0) {
    if (n > 0) {
      body(0, 0, n);
    }
    return;
  }

  done_.store(0, std::memory_order_relaxed);
  items_ = n;
  body_ = &body;
  {
    // Publish under the mutex so a worker evaluating its wait predicate
    // cannot miss the generation bump between check and sleep.
    const std::lock_guard<std::mutex> lock(mutex_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  dispatch_cv_.notify_all();

  run_lane(0, body);

  // Join: spin briefly (the workers' chunks are sized like ours, so they
  // finish at about the same time), then block.
  const std::size_t expected = workers_.size();
  for (int spin = 0;
       spin < kSpinIterations &&
       done_.load(std::memory_order_acquire) != expected;
       ++spin) {
    std::this_thread::yield();
  }
  if (done_.load(std::memory_order_acquire) != expected) {
    // Acquire, not relaxed: the predicate can see the last worker's
    // increment before that worker takes the mutex to notify, so the
    // mutex alone does not order the workers' reads of `body_` before
    // the reset below.
    std::unique_lock<std::mutex> lock(mutex_);
    join_cv_.wait(lock, [this, expected] {
      return done_.load(std::memory_order_acquire) == expected;
    });
  }

  body_ = nullptr;
  if (first_exception_) {
    std::exception_ptr rethrown;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      rethrown = first_exception_;
      first_exception_ = nullptr;
    }
    std::rethrow_exception(rethrown);
  }
}

void WorkerTeam::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t current = generation_.load(std::memory_order_acquire);
    for (int spin = 0;
         spin < kSpinIterations && current == seen &&
         !stopping_.load(std::memory_order_acquire);
         ++spin) {
      std::this_thread::yield();
      current = generation_.load(std::memory_order_acquire);
    }
    if (current == seen && !stopping_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mutex_);
      dispatch_cv_.wait(lock, [this, seen] {
        return generation_.load(std::memory_order_relaxed) != seen ||
               stopping_.load(std::memory_order_relaxed);
      });
      current = generation_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire) && current == seen) {
      return;
    }
    seen = current;
    run_lane(lane, *body_);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        workers_.size()) {
      // Lock-then-notify so the controller cannot sleep between its
      // predicate check and our notification.
      const std::lock_guard<std::mutex> lock(mutex_);
      join_cv_.notify_one();
    }
  }
}

}  // namespace edgesched::util
