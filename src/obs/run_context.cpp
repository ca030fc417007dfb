#include "obs/run_context.hpp"

#include <atomic>

namespace edgesched::obs {

namespace {
std::atomic<std::uint64_t> g_next_run_id{1};
thread_local std::uint64_t t_current_run_id = kNoRun;
}  // namespace

std::uint64_t mint_run_id() noexcept {
  return g_next_run_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_run_id() noexcept { return t_current_run_id; }

ScopedRunId::ScopedRunId(std::uint64_t run_id) noexcept
    : previous_(t_current_run_id) {
  t_current_run_id = run_id;
}

ScopedRunId::~ScopedRunId() { t_current_run_id = previous_; }

}  // namespace edgesched::obs
