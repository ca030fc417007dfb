// Intra-run parallelism configuration.
//
// The metaheuristics fan their evaluations across a worker team: the GA
// its population, the SA its speculative neighbor batches. The
// list-scheduling engine runs serially. The worker count is configuration, not algorithm state — results are
// byte-identical at every setting (docs/parallelism.md) — so it resolves
// here, outside any AlgorithmSpec or fingerprint:
//
//   1. the innermost `ScopedIntraThreads` on the calling thread, if any
//      (service jobs and metaheuristic workers pin 1 so nested runs
//      never multiply threads);
//   2. else the process-global `set_intra_run_threads` value (the CLI's
//      --intra-threads);
//   3. else the EDGESCHED_INTRA_THREADS environment variable;
//   4. else 1 — serial, the default, so existing single-threaded
//      behaviour and perf baselines are untouched unless asked for.
//
// A value of 0 anywhere means "hardware concurrency".
#pragma once

#include <cstddef>

namespace edgesched::sched {

/// The intra-run worker count in effect on this thread; always >= 1.
[[nodiscard]] std::size_t intra_run_threads();

/// Sets the process-global intra-run worker count (0 = hardware
/// concurrency). Thread-safe; scoped overrides still win.
void set_intra_run_threads(std::size_t threads);

/// RAII thread-local override of `intra_run_threads` (0 = hardware
/// concurrency); restores the previous override on destruction.
class ScopedIntraThreads {
 public:
  explicit ScopedIntraThreads(std::size_t threads);
  ~ScopedIntraThreads();

  ScopedIntraThreads(const ScopedIntraThreads&) = delete;
  ScopedIntraThreads& operator=(const ScopedIntraThreads&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace edgesched::sched
