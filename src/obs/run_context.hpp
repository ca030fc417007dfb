// Run correlation: one process-unique ID per scheduling/execution run.
//
// PR 2's telemetry streams — engine spans, DecisionLog JSONL, hot
// counters — and PR 5's execution events grew up independently, so a
// `svc` job, the spans it produced, the decisions it logged and the
// ExecutionReport it returned were four disjoint artifacts. A RunContext
// stitches them together: `SchedulerService::submit`/`execute` (and the
// CLI, and `exec::execute` when called bare) mint one run ID per
// request, install it for the scope of the work, and every event
// recorded inside that scope — trace events, decision records, flight
// recorder entries, the execution report — carries it.
//
// Determinism: IDs come from one process-global counter, so they are
// allocated in submission order — under a fixed seed and submission
// order (the CLI, the tests, any serial driver) the same run gets the
// same ID every invocation, which keeps same-seed artifact dumps
// byte-identical.
//
// Cost model: `current_run_id()` is one call and one thread-local load;
// installing a scope is two. Nothing allocates. The ID is propagated per
// *thread* — a pool job installs the scope inside the job body, so work
// executed on behalf of a run is tagged no matter which worker picks it
// up.
//
// The thread-local is private to run_context.cpp on purpose. Inline
// accesses from other translation units go through a weak TLS-init probe
// whose result the linker's TLS relaxation (add -> lea) leaves in the
// flags, so gcc 12's -fsanitize=null check reported every such access as
// a null load.
#pragma once

#include <cstdint>

namespace edgesched::obs {

/// ID of "no active run" (events recorded outside any scope).
inline constexpr std::uint64_t kNoRun = 0;

/// Allocates the next process-unique run ID (1, 2, 3, ... in call
/// order). Thread-safe.
[[nodiscard]] std::uint64_t mint_run_id() noexcept;

/// The run ID installed on this thread, or kNoRun.
[[nodiscard]] std::uint64_t current_run_id() noexcept;

/// Installs `run_id` as this thread's current run for the scope's
/// lifetime; restores the previous value (usually kNoRun) on
/// destruction. Nests: an inner scope shadows the outer one.
class ScopedRunId {
 public:
  explicit ScopedRunId(std::uint64_t run_id) noexcept;
  ~ScopedRunId();

  ScopedRunId(const ScopedRunId&) = delete;
  ScopedRunId& operator=(const ScopedRunId&) = delete;

 private:
  std::uint64_t previous_;
};

}  // namespace edgesched::obs
