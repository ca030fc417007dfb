#include "sched/intra_run.hpp"

#include <atomic>
#include <thread>

#include "util/env.hpp"

namespace edgesched::sched {

namespace {

constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

std::atomic<std::size_t>& global_setting() {
  static std::atomic<std::size_t> value{kUnset};
  return value;
}

// 0 = no override on this thread (0 is not a resolvable count; resolved
// values are always >= 1).
thread_local std::size_t tl_override = 0;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve(std::size_t requested) {
  return requested == 0 ? hardware_threads() : requested;
}

std::size_t env_setting() {
  static const std::size_t value = [] {
    const std::int64_t raw = env_int("EDGESCHED_INTRA_THREADS", 1);
    return resolve(raw < 0 ? 1 : static_cast<std::size_t>(raw));
  }();
  return value;
}

}  // namespace

std::size_t intra_run_threads() {
  if (tl_override != 0) {
    return tl_override;
  }
  const std::size_t global = global_setting().load(std::memory_order_relaxed);
  if (global != kUnset) {
    return resolve(global);
  }
  return env_setting();
}

void set_intra_run_threads(std::size_t threads) {
  global_setting().store(threads, std::memory_order_relaxed);
}

ScopedIntraThreads::ScopedIntraThreads(std::size_t threads)
    : previous_(tl_override) {
  tl_override = resolve(threads);
}

ScopedIntraThreads::~ScopedIntraThreads() { tl_override = previous_; }

}  // namespace edgesched::sched
