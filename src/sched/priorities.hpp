// Task priority schemes and list orders.
//
// All schedulers in the paper process tasks in a static priority order
// (bottom level, §2.1) restricted by precedence: among the ready tasks the
// one with the highest priority is scheduled next.
#pragma once

#include <vector>

#include "dag/task_graph.hpp"

namespace edgesched::sched {

enum class PriorityScheme {
  kBottomLevel,                 ///< bl with communication (paper default)
  kBottomLevelComputationOnly,  ///< bl over computation costs only
  kTopLevelPlusBottomLevel,     ///< tl + bl (critical-path membership)
};

/// Per-task priority values under the given scheme.
[[nodiscard]] std::vector<double> priorities(const dag::TaskGraph& graph,
                                             PriorityScheme scheme);

/// Precedence-safe list order: repeatedly pick the ready task with the
/// highest priority (ties broken by smaller task id, so the order is
/// deterministic). Drains a `ReadyQueue`.
[[nodiscard]] std::vector<dag::TaskId> list_order(
    const dag::TaskGraph& graph, const std::vector<double>& priority);

/// Convenience: list order under a scheme.
[[nodiscard]] std::vector<dag::TaskId> list_order(
    const dag::TaskGraph& graph,
    PriorityScheme scheme = PriorityScheme::kBottomLevel);

}  // namespace edgesched::sched
