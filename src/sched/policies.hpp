// Policy interfaces of the list-scheduling engine.
//
// The §4 list-scheduling loop makes four pluggable decisions per task:
//
//   * `ProcessorSelectionPolicy` — which processor the ready task takes
//     (§4.1: blind EFT, tentative EFT, or the MLS finish estimate).
//   * `EdgeOrderPolicy` — the order its incoming edges book the network
//     (§4.2: predecessor order, or costliest first).
//   * `RoutingPolicy` — the route of each non-local communication
//     (§4.3: static minimal BFS, or the finish-time-keyed Dijkstra over
//     `NetworkStateModel::probe`).
//   * `InsertionPolicy` — how the routed communication commits into the
//     network state and what it writes into the schedule's
//     `EdgeCommunication` (§3 first-fit, §4.4 optimal, §2.2 packetized,
//     §5 fluid bandwidth).
//
// Concrete policies live in policies.cpp; the engine resolves them from
// an `AlgorithmSpec` via the `make_*_policy` factories. Policies are
// per-run objects: they may hold scratch state (the tentative-EFT commit
// list, the cost-sort buffer) but no cross-run state.
#pragma once

#include <memory>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/decision_log.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/network_model.hpp"
#include "sched/network_state.hpp"
#include "sched/schedule.hpp"

namespace edgesched::sched {

class RoutingPolicy {
 public:
  RoutingPolicy() = default;
  virtual ~RoutingPolicy() = default;

  RoutingPolicy(const RoutingPolicy&) = delete;
  RoutingPolicy& operator=(const RoutingPolicy&) = delete;

  /// The route one communication of `cost` units takes from `from` to
  /// `to` when shipped at `ship_time`. The returned reference stays valid
  /// until the next `route` call on this policy (it points into the
  /// route table or the policy's scratch — no per-edge allocation for
  /// static routes).
  [[nodiscard]] virtual const net::Route& route(NetworkStateModel& network,
                                                net::NodeId from,
                                                net::NodeId to,
                                                double ship_time,
                                                double cost) = 0;
};

/// Everything a selection policy may consult: the run's read-only inputs
/// plus the mutable network (tentative EFT commits into it and rolls
/// back) and the routing policy (tentative routes use the same routes the
/// final commit will).
struct EngineState {
  const dag::TaskGraph& graph;
  const net::Topology& topology;
  const AlgorithmSpec& spec;
  const Schedule& out;
  const MachineState& machines;
  NetworkStateModel& network;
  RoutingPolicy& routing;
};

class ProcessorSelectionPolicy {
 public:
  /// Outcome of one selection.
  struct Choice {
    net::NodeId processor;
    /// The score that won (logged as the decision's chosen estimate):
    /// predicted finish for the EFT policies, the §4.1 estimate for MLS.
    double score = 0.0;
    /// Tentative EFT only: the task start observed for the winner, which
    /// the engine asserts the re-commit reproduces. Negative when the
    /// policy makes no such prediction.
    double expected_start = -1.0;
  };

  ProcessorSelectionPolicy() = default;
  virtual ~ProcessorSelectionPolicy() = default;

  ProcessorSelectionPolicy(const ProcessorSelectionPolicy&) = delete;
  ProcessorSelectionPolicy& operator=(const ProcessorSelectionPolicy&) =
      delete;

  /// Picks the processor for `task`, ready at `ready_moment` with
  /// execution weight `weight`, whose incoming edges will book in the
  /// order `in`. Appends one entry per evaluated processor to
  /// `candidates` when non-null (decision logging).
  [[nodiscard]] virtual Choice select(
      const EngineState& state, dag::TaskId task, double weight,
      double ready_moment, const std::vector<dag::EdgeId>& in,
      std::vector<obs::ProcessorCandidate>* candidates) = 0;
};

class EdgeOrderPolicy {
 public:
  EdgeOrderPolicy() = default;
  virtual ~EdgeOrderPolicy() = default;

  EdgeOrderPolicy(const EdgeOrderPolicy&) = delete;
  EdgeOrderPolicy& operator=(const EdgeOrderPolicy&) = delete;

  /// The order `task`'s incoming edges book the network. May return a
  /// reference to the graph's own in-edge list (predecessor order) or to
  /// `scratch` after reordering into it.
  [[nodiscard]] virtual const std::vector<dag::EdgeId>& order(
      const dag::TaskGraph& graph, dag::TaskId task,
      std::vector<dag::EdgeId>& scratch) = 0;
};

class InsertionPolicy {
 public:
  InsertionPolicy() = default;
  virtual ~InsertionPolicy() = default;

  InsertionPolicy(const InsertionPolicy&) = delete;
  InsertionPolicy& operator=(const InsertionPolicy&) = delete;

  /// Books the routed communication into the network state and fills
  /// `comm` (kind, route, occupations/profiles, arrival).
  virtual void commit(NetworkStateModel& network, dag::EdgeId edge,
                      const net::Route& route, double ship_time, double cost,
                      EdgeCommunication& comm) = 0;

  /// Decision-log hops of a communication this policy just committed.
  virtual void append_hops(NetworkStateModel& network, dag::EdgeId edge,
                           const EdgeCommunication& comm,
                           std::vector<obs::EdgeHop>& hops) const = 0;
};

/// `mean_link_speed` is the topology's MLS, cached by the
/// `PlatformContext` (only the kMlsEstimate policy consults it).
[[nodiscard]] std::unique_ptr<ProcessorSelectionPolicy> make_selection_policy(
    const AlgorithmSpec& spec, double mean_link_speed);
[[nodiscard]] std::unique_ptr<EdgeOrderPolicy> make_edge_order_policy(
    const AlgorithmSpec& spec);
/// `workspace` (the Dijkstra scratch) and `static_routes` (the
/// platform's minimal-route table, read by BFS routing) must outlive the
/// policy; the engine leases the workspace per run.
[[nodiscard]] std::unique_ptr<RoutingPolicy> make_routing_policy(
    const AlgorithmSpec& spec, const net::Topology& topology,
    net::RoutingWorkspace& workspace,
    const net::StaticRouteTable& static_routes);
[[nodiscard]] std::unique_ptr<InsertionPolicy> make_insertion_policy(
    const AlgorithmSpec& spec);

}  // namespace edgesched::sched
