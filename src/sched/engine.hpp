// The unified contention-aware list-scheduling engine.
//
// One §4 loop for every algorithm in the reproduction: tasks are taken in
// static priority order, and each ready task makes four decisions, each a
// switch over one `AlgorithmSpec` field — processor choice (§4.1,
// `spec.selection`), the order its incoming edges book the network
// (§4.2, `spec.edge_order`), the route of each non-local communication
// (§4.3, `spec.routing`) and how that communication commits into the
// network state (§4.4/§5, `spec.insertion`). BA, OIHSA, BBSA and
// PACKET-BA are preset bundles of these fields (`ba_spec()` etc. in
// algorithm_spec.hpp) and produce bit-identical schedules to the
// dedicated implementations they replaced (tests/engine_golden_test.cpp
// pins that).
//
// The network state is chosen once per run from `spec.insertion`:
// `BandwidthNetworkState` for fluid bandwidth sharing,
// `ExclusiveNetworkState` otherwise. The loop is compiled once per state
// type, so no per-edge call goes through a virtual or a downcast.
//
// The engine also instruments uniformly: spans named "<algo>/schedule",
// "<algo>/select_processor" and "<algo>/route_edge" (obs/naming.hpp),
// task/edge decision records when a DecisionLog is active, and batched
// tasks-placed / edges-routed / candidates-evaluated counters.
//
// Routes come from the context's lazily filled table, the MLS estimate
// from its cached reduction, and the per-run scratch from its workspace
// pool. A one-off schedule builds a throwaway context
// (`Scheduler::schedule(graph, topology)` does exactly that), which
// costs no route discovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "dag/task_graph.hpp"
#include "obs/naming.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

/// Work bound of the packetized model (§2.2): an edge of cost c splits
/// into ceil(c / packet_size) packets, each booked on every hop of its
/// route, so a packetized spec accepts at most this many per edge.
inline constexpr std::size_t kMaxPacketsPerEdge = 16384;

/// Thrown by a packetized spec's `schedule` for an edge that would split
/// into more than kMaxPacketsPerEdge packets; the message names the edge
/// and its packet count.
class PacketCountError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Any `AlgorithmSpec` bundle — preset or novel — as a `Scheduler`,
/// usable wherever one is expected (sweeps, the service layer, ablation
/// benches). The registry instantiates every engine-backed algorithm
/// this way.
class SpecScheduler final : public Scheduler {
 public:
  /// Validates the spec (AlgorithmSpec::validate) and interns its span
  /// names; throws std::invalid_argument on an inconsistent bundle.
  explicit SpecScheduler(AlgorithmSpec spec);

  /// Runs the list-scheduling loop on the context's topology; a
  /// packetized spec first throws PacketCountError for any edge over
  /// kMaxPacketsPerEdge packets. Reentrant:
  /// all mutable state is per-run, so one scheduler may serve concurrent
  /// runs, over one shared context or several
  /// (tests/platform_context_property_test.cpp).
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;

  [[nodiscard]] std::string name() const override { return spec_.name; }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    return spec_.fingerprint();
  }

 private:
  AlgorithmSpec spec_;
  obs::SpanNames names_;
};

}  // namespace edgesched::sched
