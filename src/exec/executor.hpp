// Deterministic discrete-event execution of a static schedule.
//
// `execute` replays a `sched::Schedule` forward in virtual time on its
// topology: tasks run on their planned processors in planned order,
// cross-processor edges move over their planned routes (exclusive slots
// serialise per contention domain, bandwidth transfers forward fluidly,
// packetized edges store-and-forward per packet), and a `RuntimeModel`
// perturbs durations while a `FaultPlan` kills resources.
//
// Dispatch modes:
//   * kTimetable (default) — every operation is anchored at its planned
//     start and never begins earlier, only later (when dependencies,
//     resources, or repairs delay it). With a nominal model and no
//     faults this reproduces the predicted schedule *bit-for-bit*:
//     every task starts and finishes at exactly the predicted doubles.
//   * kEventDriven — work-conserving: operations start as soon as their
//     dependencies and resources allow, still in planned per-resource
//     order. No exactness guarantee (a slot planned after an
//     intentionally skipped gap may start earlier than predicted).
//
// Recovery policies answer injected faults:
//   * kFailStop    — abort on the first fault that destroys work or is
//     permanent.
//   * kRetry       — re-run killed work on the same resource after it
//     heals, with configurable backoff; permanent faults that strand
//     pending work abort.
//   * kReschedule  — transient faults retry in place; a permanent fault
//     that strands work triggers an online replan: the unfinished
//     subgraph (plus re-staging stubs for surviving outputs) is handed
//     to an `algorithm_registry()` scheduler on the surviving topology
//     and execution continues on the new plan.
//
// Determinism: the event loop breaks ties by (time, kind-rank, push
// sequence) and all stochastic factors are pure functions of (seed,
// entity, attempt) — same inputs, bit-identical `ExecutionReport`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dag/task_graph.hpp"
#include "exec/fault.hpp"
#include "exec/report.hpp"
#include "exec/runtime_model.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::exec {

enum class RecoveryPolicy { kFailStop, kRetry, kReschedule };
enum class DispatchMode { kTimetable, kEventDriven };

[[nodiscard]] std::string_view to_string(RecoveryPolicy policy) noexcept;
[[nodiscard]] std::string_view to_string(DispatchMode mode) noexcept;

/// Parses "fail-stop" | "retry" | "reschedule" (case-sensitive). Throws
/// std::invalid_argument naming the accepted spellings.
[[nodiscard]] RecoveryPolicy parse_recovery_policy(std::string_view name);
/// Parses "timetable" | "event-driven".
[[nodiscard]] DispatchMode parse_dispatch_mode(std::string_view name);

struct ExecutionOptions {
  RuntimeModel model;
  FaultPlan faults;
  RecoveryPolicy policy = RecoveryPolicy::kFailStop;
  DispatchMode dispatch = DispatchMode::kTimetable;

  /// Replanning algorithm for kReschedule; "" re-invokes the executed
  /// schedule's own algorithm (`Schedule::algorithm()`).
  std::string recovery_algorithm;

  /// A task/transfer killed more than this many times aborts (kRetry and
  /// kReschedule; transient faults only).
  std::uint32_t max_retries = 3;
  /// Extra wait before re-running killed work: backoff · kill-count,
  /// added after the resource heals.
  double retry_backoff = 0.0;

  /// Online replans beyond this count abort (kReschedule).
  std::uint32_t max_reschedules = 8;
  /// Virtual replanning latency added before the new plan starts.
  double reschedule_delay = 0.0;
};

/// Replays `schedule` for `graph` on `topology` under `options`.
///
/// Throws std::invalid_argument on malformed inputs (model/fault
/// parameters out of range, a negative or non-finite `retry_backoff` or
/// `reschedule_delay`, fault targets unknown to the topology, schedule
/// shape mismatch). Runtime failures — fail-stop aborts, retry
/// exhaustion, unrecoverable topologies — do not throw; they return a
/// report with `completed == false` and a human-readable `failure`.
[[nodiscard]] ExecutionReport execute(const dag::TaskGraph& graph,
                                      const net::Topology& topology,
                                      const sched::Schedule& schedule,
                                      const ExecutionOptions& options = {});

}  // namespace edgesched::exec
