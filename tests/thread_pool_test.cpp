#include "svc/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace edgesched::svc {
namespace {

TEST(ThreadPool, RunsSubmittedWorkAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ZeroThreadsDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([]() { return 1; });
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
  // A worker that saw an exception keeps serving.
  EXPECT_EQ(good.get(), 1);
  EXPECT_EQ(pool.submit([]() { return 2; }).get(), 2);
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  std::atomic<int> executed{0};
  ThreadPool pool(1);  // single worker => work queues up behind the sleep
  pool.submit([]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  constexpr int kJobs = 32;
  for (int i = 0; i < kJobs; ++i) {
    pool.submit([&executed]() {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.shutdown();  // must wait for every queued job, not drop them
  EXPECT_EQ(executed.load(), kJobs);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([]() { return 0; }), std::invalid_argument);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> executed{0};
  constexpr int kJobs = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kJobs; ++i) {
      pool.submit([&executed]() {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor == shutdown()
  EXPECT_EQ(executed.load(), kJobs);
}

TEST(ThreadPool, ConcurrentSubmittersAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  constexpr int kSubmitters = 8;
  constexpr int kJobsEach = 50;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed]() {
      std::vector<std::future<void>> futures;
      futures.reserve(kJobsEach);
      for (int i = 0; i < kJobsEach; ++i) {
        futures.push_back(pool.submit([&executed]() {
          executed.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  EXPECT_EQ(executed.load(), kSubmitters * kJobsEach);
}

}  // namespace
}  // namespace edgesched::svc
