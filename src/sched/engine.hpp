// The unified contention-aware list-scheduling engine.
//
// One §4 loop for every algorithm in the reproduction: tasks are taken in
// static priority order; each ready task picks a processor through the
// spec's `ProcessorSelectionPolicy`, its incoming edges book the network
// in the `EdgeOrderPolicy`'s order, each non-local communication is routed
// by the `RoutingPolicy` and committed by the `InsertionPolicy` into the
// `NetworkStateModel`, and the task is placed. BA, OIHSA, BBSA and
// PACKET-BA are preset `AlgorithmSpec` bundles over these seams
// (`ba_spec()` etc. in algorithm_spec.hpp) and produce bit-identical
// schedules to the dedicated implementations they replaced
// (tests/engine_golden_test.cpp pins that).
//
// The engine also instruments uniformly: spans named "<algo>/schedule",
// "<algo>/select_processor" and "<algo>/route_edge" (obs/naming.hpp),
// task/edge decision records when a DecisionLog is active, and batched
// tasks-placed / edges-routed / candidates-evaluated counters.
//
// The one entry point is `run(graph, platform)`: routes come from the
// context's lazily filled table, the MLS estimate from its cached
// reduction, and the per-run scratch from its workspace pool. A one-off
// schedule builds a throwaway context (`Scheduler::schedule(graph,
// topology)` does exactly that), which costs no route discovery.
#pragma once

#include <cstdint>

#include "dag/task_graph.hpp"
#include "obs/naming.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

class ListSchedulingEngine {
 public:
  /// Validates the spec (AlgorithmSpec::validate) and interns its span
  /// names; throws std::invalid_argument on an inconsistent bundle.
  explicit ListSchedulingEngine(AlgorithmSpec spec);

  [[nodiscard]] const AlgorithmSpec& spec() const noexcept { return spec_; }

  /// Runs the list-scheduling loop on the context's topology. Reentrant:
  /// all mutable state is per-run, so one engine may serve concurrent
  /// runs, over one shared context or several
  /// (tests/platform_context_property_test.cpp).
  [[nodiscard]] Schedule run(const dag::TaskGraph& graph,
                             const PlatformContext& platform) const;

 private:
  AlgorithmSpec spec_;
  obs::SpanNames names_;
};

/// Scheduler adapter over an `AlgorithmSpec`: any policy bundle — preset
/// or novel — as a `Scheduler`, usable wherever one is expected (sweeps,
/// the service layer, ablation benches). The registry instantiates every
/// engine-backed algorithm this way.
class SpecScheduler final : public Scheduler {
 public:
  explicit SpecScheduler(AlgorithmSpec spec) : engine_(std::move(spec)) {}

  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override {
    check_inputs(graph, platform.topology());
    return engine_.run(graph, platform);
  }

  [[nodiscard]] std::string name() const override {
    return engine_.spec().name;
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    return engine_.spec().fingerprint();
  }

 private:
  ListSchedulingEngine engine_;
};

}  // namespace edgesched::sched
