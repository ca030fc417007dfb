#include "sched/policies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace edgesched::sched {

namespace {

ExclusiveNetworkState& require_exclusive(NetworkStateModel& network) {
  ExclusiveNetworkState* const state = network.exclusive_state();
  EDGESCHED_ASSERT_MSG(state != nullptr,
                       "policy requires the exclusive network model");
  return *state;
}

BandwidthNetworkState& require_bandwidth(NetworkStateModel& network) {
  BandwidthNetworkState* const state = network.bandwidth_state();
  EDGESCHED_ASSERT_MSG(state != nullptr,
                       "policy requires the bandwidth network model");
  return *state;
}

// ---------------------------------------------------------------------------
// Processor selection (§4.1)

/// The scan shared by the read-only selection policies: scores every
/// processor in index order, logs each candidate when `candidates` is
/// non-null, and keeps the first strict minimum (the first processor
/// wins outright, so ties and non-finite scores resolve to the lowest
/// index).
template <typename Score>
ProcessorSelectionPolicy::Choice first_minimum(
    const std::vector<net::NodeId>& processors, Score&& score,
    std::vector<obs::ProcessorCandidate>* candidates) {
  ProcessorSelectionPolicy::Choice choice{
      net::NodeId{}, std::numeric_limits<double>::infinity(), -1.0};
  for (std::size_t p = 0; p < processors.size(); ++p) {
    const obs::ProcessorCandidate candidate = score(processors[p]);
    if (candidates != nullptr) {
      candidates->push_back(candidate);
    }
    if (p == 0 || candidate.estimate < choice.score) {
      choice.processor = processors[p];
      choice.score = candidate.estimate;
    }
  }
  return choice;
}

/// Communication-blind EFT: ready moment + execution time through the
/// task placement policy (BA's paper reading, PACKET-BA).
class BlindEftSelection final : public ProcessorSelectionPolicy {
 public:
  Choice select(const EngineState& state, dag::TaskId /*task*/,
                double weight, double ready_moment,
                const std::vector<dag::EdgeId>& /*in*/,
                std::vector<obs::ProcessorCandidate>* candidates) override {
    return first_minimum(
        state.topology.processors(),
        [&](net::NodeId processor) {
          return score(state, weight, ready_moment, processor);
        },
        candidates);
  }

 private:
  static obs::ProcessorCandidate score(const EngineState& state,
                                       double weight, double ready_moment,
                                       net::NodeId processor) {
    const double duration =
        weight / state.topology.processor_speed(processor);
    const double start = state.machines.start_for(
        processor, ready_moment, duration, state.spec.task_insertion);
    return obs::ProcessorCandidate{
        static_cast<std::uint32_t>(processor.index()), ready_moment,
        start + duration};
  }
};

/// Tentative EFT (Sinnen's original BA): schedule the task with all its
/// incoming communications on every processor, roll the network back,
/// keep the true earliest finish. Basic insertion never displaces
/// existing slots, so rollback is a plain erase.
class TentativeEftSelection final : public ProcessorSelectionPolicy {
 public:
  Choice select(const EngineState& state, dag::TaskId /*task*/,
                double weight, double ready_moment,
                const std::vector<dag::EdgeId>& in,
                std::vector<obs::ProcessorCandidate>* candidates) override {
    ExclusiveNetworkState& network = require_exclusive(state.network);
    net::NodeId best_processor;
    double best_finish = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    for (net::NodeId processor : state.topology.processors()) {
      committed_.clear();
      double data_ready = ready_moment;
      for (dag::EdgeId e : in) {
        const dag::Edge& edge = state.graph.edge(e);
        const TaskPlacement& src = state.out.task(edge.src);
        double arrival = src.finish;
        if (src.processor != processor && edge.cost > 0.0) {
          const double ship_time =
              state.spec.eager_communication ? src.finish : ready_moment;
          const net::Route& route = state.routing.route(
              state.network, src.processor, processor, ship_time, edge.cost);
          arrival = network.commit_edge_basic(e, route, ship_time, edge.cost);
          committed_.push_back(e);
        }
        data_ready = std::max(data_ready, arrival);
      }
      const double duration =
          weight / state.topology.processor_speed(processor);
      const double start = state.machines.start_for(
          processor, data_ready, duration, state.spec.task_insertion);
      const double finish = start + duration;
      if (candidates != nullptr) {
        candidates->push_back(obs::ProcessorCandidate{
            static_cast<std::uint32_t>(processor.index()), data_ready,
            finish});
      }
      if (finish < best_finish) {
        best_finish = finish;
        best_start = start;
        best_processor = processor;
      }
      for (auto it = committed_.rbegin(); it != committed_.rend(); ++it) {
        network.uncommit_edge(*it);
      }
    }
    return Choice{best_processor, best_finish, best_start};
  }

 private:
  /// Edges this trial committed, for rollback between candidates.
  std::vector<dag::EdgeId> committed_;
};

/// OIHSA/BBSA choice (§4.1): minimise the static-style finish estimate
///   max(max_j(t_f(n_j) + c(e_ji)/MLS), availability) + w(n_i)/s(P),
/// where same-processor communication is free. The availability term is
/// the processor's literal finish time, or (insertion-aware variant) the
/// start the placement policy would actually yield.
class MlsEstimateSelection final : public ProcessorSelectionPolicy {
 public:
  MlsEstimateSelection(double mean_link_speed, bool insertion_aware)
      : mls_(mean_link_speed), insertion_aware_(insertion_aware) {}

  Choice select(const EngineState& state, dag::TaskId /*task*/,
                double weight, double /*ready_moment*/,
                const std::vector<dag::EdgeId>& in,
                std::vector<obs::ProcessorCandidate>* candidates) override {
    return first_minimum(
        state.topology.processors(),
        [&](net::NodeId processor) {
          return score(state, weight, in, processor);
        },
        candidates);
  }

 private:
  obs::ProcessorCandidate score(const EngineState& state, double weight,
                                const std::vector<dag::EdgeId>& in,
                                net::NodeId processor) const {
    double ready_estimate = 0.0;
    for (dag::EdgeId e : in) {
      const dag::Edge& edge = state.graph.edge(e);
      const TaskPlacement& src = state.out.task(edge.src);
      double via = src.finish;
      if (src.processor != processor && mls_ > 0.0) {
        via += edge.cost / mls_;
      }
      ready_estimate = std::max(ready_estimate, via);
    }
    const double duration_on_p =
        weight / state.topology.processor_speed(processor);
    const double availability =
        insertion_aware_
            ? state.machines.start_for(processor, ready_estimate,
                                       duration_on_p,
                                       state.spec.task_insertion)
            : std::max(ready_estimate,
                       state.machines.finish_time(processor));
    return obs::ProcessorCandidate{
        static_cast<std::uint32_t>(processor.index()), ready_estimate,
        availability + duration_on_p};
  }

  double mls_;
  bool insertion_aware_;
};

// ---------------------------------------------------------------------------
// Edge order (§4.2)

class PredecessorEdgeOrder final : public EdgeOrderPolicy {
 public:
  const std::vector<dag::EdgeId>& order(
      const dag::TaskGraph& graph, dag::TaskId task,
      std::vector<dag::EdgeId>& /*scratch*/) override {
    return graph.in_edges(task);
  }
};

/// The costliest incoming edge books first; stable, so equal costs keep
/// predecessor order.
class ByCostEdgeOrder final : public EdgeOrderPolicy {
 public:
  const std::vector<dag::EdgeId>& order(
      const dag::TaskGraph& graph, dag::TaskId task,
      std::vector<dag::EdgeId>& scratch) override {
    scratch = graph.in_edges(task);
    std::stable_sort(scratch.begin(), scratch.end(),
                     [&](dag::EdgeId a, dag::EdgeId b) {
                       return graph.cost(a) > graph.cost(b);
                     });
    return scratch;
  }
};

// ---------------------------------------------------------------------------
// Routing (§4.3)

/// Static minimal routing: fewest hops, read from the platform's
/// minimal-route table.
class BfsRouting final : public RoutingPolicy {
 public:
  explicit BfsRouting(const net::StaticRouteTable& table) : table_(table) {}

  const net::Route& route(NetworkStateModel& /*network*/, net::NodeId from,
                          net::NodeId to, double /*ship_time*/,
                          double /*cost*/) override {
    return table_.route(from, to);
  }

 private:
  const net::StaticRouteTable& table_;
};

/// Modified routing (§4.3): Dijkstra relaxing on the tentative per-link
/// finish time the network model's probe reports.
class ProbeDijkstraRouting final : public RoutingPolicy {
 public:
  ProbeDijkstraRouting(const net::Topology& topology,
                       net::RoutingWorkspace& workspace)
      : topology_(topology), workspace_(workspace) {}

  const net::Route& route(NetworkStateModel& network, net::NodeId from,
                          net::NodeId to, double ship_time,
                          double cost) override {
    route_ = search(network, from, to, ship_time, cost);
    return route_;
  }

 private:
  // The probe runs once per Dijkstra relaxation — the innermost loop of
  // modified routing — so the known network models get concrete lambdas
  // the search template can inline, exactly as the pre-engine schedulers
  // did. The virtual NetworkStateModel::probe stays as the path for
  // models this policy does not know about.
  net::Route search(NetworkStateModel& network, net::NodeId from,
                    net::NodeId to, double ship_time, double cost) {
    if (ExclusiveNetworkState* exclusive = network.exclusive_state()) {
      const auto probe = [exclusive, cost](net::LinkId link,
                                           const net::ProbeState& state) {
        const timeline::Placement placement = exclusive->probe_link(
            link, state.earliest_start, state.min_finish, cost);
        return net::ProbeResult{placement.start, placement.finish};
      };
      return net::dijkstra_route_probe(topology_, from, to, ship_time,
                                       probe, &workspace_);
    }
    if (BandwidthNetworkState* bandwidth = network.bandwidth_state()) {
      const auto probe = [bandwidth, cost](net::LinkId link,
                                           const net::ProbeState& state) {
        return bandwidth->probe(link, state.earliest_start, state.min_finish,
                                cost);
      };
      return net::dijkstra_route_probe(topology_, from, to, ship_time,
                                       probe, &workspace_);
    }
    const auto probe = [&network, cost](net::LinkId link,
                                        const net::ProbeState& state) {
      return network.probe(link, state, cost);
    };
    return net::dijkstra_route_probe(topology_, from, to, ship_time, probe,
                                     &workspace_);
  }

  const net::Topology& topology_;
  net::RoutingWorkspace& workspace_;
  net::Route route_;
};

// ---------------------------------------------------------------------------
// Insertion / commit (§3, §4.4, §2.2, §5)

/// Shared by the exclusive circuit policies: decision-log hops from the
/// edge's committed link record.
void append_record_hops(NetworkStateModel& network, dag::EdgeId edge,
                        std::vector<obs::EdgeHop>& hops) {
  const EdgeRecord& record = require_exclusive(network).record(edge);
  hops.reserve(hops.size() + record.occupations.size());
  for (const LinkOccupation& occ : record.occupations) {
    hops.push_back(obs::EdgeHop{static_cast<std::uint32_t>(occ.link.index()),
                                occ.start, occ.finish});
  }
}

/// First-fit exclusive slots (§3), never displacing booked edges.
class FirstFitInsertion final : public InsertionPolicy {
 public:
  void commit(NetworkStateModel& network, dag::EdgeId edge,
              const net::Route& route, double ship_time, double cost,
              EdgeCommunication& comm) override {
    ExclusiveNetworkState& state = require_exclusive(network);
    comm.arrival = state.commit_edge_basic(edge, route, ship_time, cost);
    comm.kind = EdgeCommunication::Kind::kExclusive;
    comm.route = route;
    comm.occupations = state.record(edge).occupations;
  }

  void append_hops(NetworkStateModel& network, dag::EdgeId edge,
                   const EdgeCommunication& /*comm*/,
                   std::vector<obs::EdgeHop>& hops) const override {
    append_record_hops(network, edge, hops);
  }
};

/// Optimal insertion (§4.4): booked slots may defer within their
/// causality slack. The schedule's occupations are left empty here —
/// later deferrals can move them, so the engine's end-of-run record
/// refresh (NetworkStateModel::finalize) writes the final values.
class OptimalInsertion final : public InsertionPolicy {
 public:
  void commit(NetworkStateModel& network, dag::EdgeId edge,
              const net::Route& route, double ship_time, double cost,
              EdgeCommunication& comm) override {
    comm.arrival = require_exclusive(network).commit_edge_optimal(
        edge, route, ship_time, cost);
    comm.kind = EdgeCommunication::Kind::kExclusive;
    // No comm.route/occupations here: under optimal insertion the
    // exclusive model's end-of-run refresh (make_network_model) rewrites
    // every routed edge from the final link records — anything copied
    // now would be dead work, possibly already stale.
  }

  void append_hops(NetworkStateModel& network, dag::EdgeId edge,
                   const EdgeCommunication& /*comm*/,
                   std::vector<obs::EdgeHop>& hops) const override {
    append_record_hops(network, edge, hops);
  }
};

/// Store-and-forward packets on exclusive slots (§2.2): the message
/// splits into equal-volume packets, each hop of a packet starts only
/// after the packet fully crossed the previous hop.
class PacketizedInsertion final : public InsertionPolicy {
 public:
  explicit PacketizedInsertion(double packet_size)
      : packet_size_(packet_size) {}

  void commit(NetworkStateModel& network, dag::EdgeId edge,
              const net::Route& route, double ship_time, double cost,
              EdgeCommunication& comm) override {
    ExclusiveNetworkState& state = require_exclusive(network);
    const std::size_t packets = static_cast<std::size_t>(
        std::max(1.0, std::ceil(cost / packet_size_)));
    const double volume = cost / static_cast<double>(packets);
    double arrival = ship_time;
    for (std::size_t p = 0; p < packets; ++p) {
      arrival = std::max(arrival,
                         state.commit_packet(edge, route, ship_time, volume));
    }
    comm.kind = EdgeCommunication::Kind::kPacketized;
    comm.route = route;
    comm.occupations = state.record(edge).occupations;
    comm.packet_count = packets;
    comm.arrival = arrival;
  }

  void append_hops(NetworkStateModel& network, dag::EdgeId edge,
                   const EdgeCommunication& /*comm*/,
                   std::vector<obs::EdgeHop>& hops) const override {
    append_record_hops(network, edge, hops);
  }

 private:
  double packet_size_;
};

/// Fluid bandwidth sharing (§5): full remaining bandwidth on the first
/// hop, fluid forwarding on subsequent hops, rate profiles committed.
class FluidBandwidthInsertion final : public InsertionPolicy {
 public:
  void commit(NetworkStateModel& network, dag::EdgeId edge,
              const net::Route& route, double ship_time, double cost,
              EdgeCommunication& comm) override {
    (void)edge;
    BandwidthNetworkState::Transfer transfer =
        require_bandwidth(network).commit_edge(route, ship_time, cost);
    comm.kind = EdgeCommunication::Kind::kBandwidth;
    comm.route = route;
    comm.profiles = std::move(transfer.profiles);
    comm.arrival = transfer.arrival;
  }

  void append_hops(NetworkStateModel& /*network*/, dag::EdgeId /*edge*/,
                   const EdgeCommunication& comm,
                   std::vector<obs::EdgeHop>& hops) const override {
    for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
      hops.push_back(obs::EdgeHop{
          static_cast<std::uint32_t>(comm.route[i].index()),
          comm.profiles[i].start_time(), comm.profiles[i].finish_time()});
    }
  }
};

}  // namespace

std::unique_ptr<ProcessorSelectionPolicy> make_selection_policy(
    const AlgorithmSpec& spec, double mean_link_speed) {
  switch (spec.selection) {
    case SelectionPolicyKind::kBlindEft:
      return std::make_unique<BlindEftSelection>();
    case SelectionPolicyKind::kTentativeEft:
      return std::make_unique<TentativeEftSelection>();
    case SelectionPolicyKind::kMlsEstimate:
      return std::make_unique<MlsEstimateSelection>(
          mean_link_speed, spec.insertion_aware_estimate);
  }
  EDGESCHED_ASSERT_MSG(false, "unknown selection policy kind");
  return nullptr;
}

std::unique_ptr<EdgeOrderPolicy> make_edge_order_policy(
    const AlgorithmSpec& spec) {
  switch (spec.edge_order) {
    case EdgeOrderPolicyKind::kPredecessorOrder:
      return std::make_unique<PredecessorEdgeOrder>();
    case EdgeOrderPolicyKind::kByCostDescending:
      return std::make_unique<ByCostEdgeOrder>();
  }
  EDGESCHED_ASSERT_MSG(false, "unknown edge-order policy kind");
  return nullptr;
}

std::unique_ptr<RoutingPolicy> make_routing_policy(
    const AlgorithmSpec& spec, const net::Topology& topology,
    net::RoutingWorkspace& workspace,
    const net::StaticRouteTable& static_routes) {
  switch (spec.routing) {
    case RoutingPolicyKind::kBfsMinimal:
      return std::make_unique<BfsRouting>(static_routes);
    case RoutingPolicyKind::kProbeDijkstra:
      return std::make_unique<ProbeDijkstraRouting>(topology, workspace);
  }
  EDGESCHED_ASSERT_MSG(false, "unknown routing policy kind");
  return nullptr;
}

std::unique_ptr<InsertionPolicy> make_insertion_policy(
    const AlgorithmSpec& spec) {
  switch (spec.insertion) {
    case InsertionPolicyKind::kFirstFit:
      return std::make_unique<FirstFitInsertion>();
    case InsertionPolicyKind::kOptimal:
      return std::make_unique<OptimalInsertion>();
    case InsertionPolicyKind::kPacketized:
      return std::make_unique<PacketizedInsertion>(spec.packet_size);
    case InsertionPolicyKind::kFluidBandwidth:
      return std::make_unique<FluidBandwidthInsertion>();
  }
  EDGESCHED_ASSERT_MSG(false, "unknown insertion policy kind");
  return nullptr;
}

}  // namespace edgesched::sched
