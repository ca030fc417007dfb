// Stochastic runtime conditions for the discrete-event executor.
//
// A static schedule is computed from nominal task weights and link
// speeds; the executor replays it under a `RuntimeModel` that perturbs
// both. Perturbations are *multiplicative duration factors* sampled from
// seeded uniform distributions, plus an optional straggler mixture for
// tasks (a small probability of a large slowdown — the heavy tail real
// clusters exhibit).
//
// Determinism contract: every factor is a pure function of (seed, kind,
// entity id, attempt number) — sampling order never matters, so the same
// seed reproduces an execution bit-for-bit regardless of event
// interleaving, and a retried attempt draws a fresh but reproducible
// factor. A model with zero spreads and zero straggler probability
// returns exactly 1.0, the anchor of the executor's bit-exact
// zero-perturbation guarantee (docs/runtime.md).
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace edgesched::exec {

struct RuntimeModel {
  /// Each task execution is multiplied by U(1 - s, 1 + s).
  double duration_spread = 0.0;
  /// Each link transfer is multiplied by U(1 - s, 1 + s) (a bandwidth
  /// slowdown/speedup of the hop).
  double bandwidth_spread = 0.0;
  /// Probability that a task attempt additionally runs `straggler_factor`
  /// times slower (sampled after the uniform factor).
  double straggler_probability = 0.0;
  double straggler_factor = 4.0;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// Order-independent factor sampler over a RuntimeModel.
class RuntimeSampler {
 public:
  explicit RuntimeSampler(const RuntimeModel& model) : model_(model) {
    model_.validate();
  }

  /// Duration factor of attempt `attempt` of task `task` (original graph
  /// ids, so rescheduled rounds keep per-task streams). Exactly 1.0 for a
  /// nominal model.
  [[nodiscard]] double task_factor(std::uint32_t task,
                                   std::uint32_t attempt) const;

  /// Duration factor of attempt `attempt` of any transfer of edge `edge`.
  [[nodiscard]] double bandwidth_factor(std::uint32_t edge,
                                        std::uint32_t attempt) const;

  [[nodiscard]] const RuntimeModel& model() const noexcept { return model_; }

 private:
  RuntimeModel model_;
};

}  // namespace edgesched::exec
