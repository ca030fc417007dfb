#include "sched/engine.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "sched/network_state.hpp"
#include "sched/priorities.hpp"
#include "sched/ready_queue.hpp"
#include "util/error.hpp"

namespace edgesched::sched {

namespace {

/// Outcome of one §4.1 selection.
struct Choice {
  net::NodeId processor;
  /// The score that won (logged as the decision's chosen estimate):
  /// predicted finish for the EFT selections, the §4.1 estimate for MLS.
  double score = std::numeric_limits<double>::infinity();
  /// Tentative EFT only: the task start observed for the winner, which
  /// the engine asserts the re-commit reproduces. Negative otherwise.
  double expected_start = -1.0;
  /// Candidates scored to reach the choice (the candidate counter).
  std::size_t scored = 0;
};

// ---------------------------------------------------------------------------
// Processor selection (§4.1)

/// Communication-blind EFT: ready moment + execution time through the
/// task placement rule (BA's paper reading, PACKET-BA). Scores every
/// processor in index order, logs each candidate when `candidates` is
/// non-null, and keeps the first strict minimum (the first processor wins
/// outright, so ties and non-finite scores resolve to the lowest index).
Choice blind_eft(const net::Topology& topology, const MachineState& machines,
                 bool task_insertion, double weight, double ready_moment,
                 std::vector<obs::ProcessorCandidate>* candidates) {
  const std::vector<net::NodeId>& processors = topology.processors();
  Choice choice;
  for (std::size_t p = 0; p < processors.size(); ++p) {
    const net::NodeId processor = processors[p];
    const double duration = weight / topology.processor_speed(processor);
    const double finish = machines.start_for(processor, ready_moment,
                                             duration, task_insertion) +
                          duration;
    if (candidates != nullptr) {
      candidates->push_back(obs::ProcessorCandidate{
          static_cast<std::uint32_t>(processor.index()), ready_moment,
          finish});
    }
    if (p == 0 || finish < choice.score) {
      choice.processor = processor;
      choice.score = finish;
    }
  }
  choice.scored = processors.size();
  return choice;
}

/// OIHSA/BBSA choice (§4.1): the static-style finish estimate
///   max(R_P, t_f(P)) + w(n_i)/s(P),  R_P = max_j(t_f(n_j) + c(e_ji)/MLS),
/// where same-processor communication is free. R_P takes one common value
/// R on every processor that holds no predecessor, so the speed groups'
/// trees answer for those under R and only the predecessors' processors
/// are scored on their own. Exact: each R_P term only drops a
/// non-negative c/MLS, so R_P <= R bit for bit, and a predecessor
/// processor's own score is no worse than its tree score; with ties to the
/// lower id on both sides, the (score, id)-least is the scan's first
/// strict minimum. With `candidates` non-null, every processor's
/// candidate is listed for the decision log; the choice still comes from
/// the trees.
Choice mls_estimate(const dag::TaskGraph& graph, const Schedule& out,
                    const net::Topology& topology,
                    const MachineState& machines, double mls, double weight,
                    std::span<const dag::EdgeId> in,
                    std::vector<obs::ProcessorCandidate>* candidates) {
  const auto ready_on = [&](net::NodeId processor) {
    double ready_estimate = 0.0;
    for (dag::EdgeId e : in) {
      const dag::Edge& edge = graph.edge(e);
      const TaskPlacement& src = out.task(edge.src);
      double via = src.finish;
      if (src.processor != processor && mls > 0.0) {
        via += edge.cost / mls;
      }
      ready_estimate = std::max(ready_estimate, via);
    }
    return ready_estimate;
  };
  const auto score = [&](net::NodeId processor, double ready_estimate) {
    return std::max(ready_estimate, machines.finish_time(processor)) +
           weight / topology.processor_speed(processor);
  };
  if (candidates != nullptr) {
    for (net::NodeId processor : topology.processors()) {
      const double ready_estimate = ready_on(processor);
      candidates->push_back(obs::ProcessorCandidate{
          static_cast<std::uint32_t>(processor.index()), ready_estimate,
          score(processor, ready_estimate)});
    }
  }

  // The invalid id is no predecessor's processor, so this is R.
  MachineState::Estimate best =
      machines.least_group_estimate(ready_on(net::NodeId()), weight);
  Choice choice;
  choice.scored = machines.num_speed_groups();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const net::NodeId processor = out.task(graph.edge(in[i]).src).processor;
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) {
      seen = out.task(graph.edge(in[j]).src).processor == processor;
    }
    if (seen) {
      continue;
    }
    ++choice.scored;
    const double own = score(processor, ready_on(processor));
    if (own < best.score ||
        (own == best.score && processor < best.processor)) {
      best = MachineState::Estimate{processor, own};
    }
  }
  choice.processor = best.processor;
  choice.score = best.score;
  return choice;
}

/// Tentative EFT (Sinnen's original BA): schedule the task with all its
/// incoming communications on every processor, roll the network back,
/// keep the true earliest finish. First-fit insertion never displaces
/// booked slots, so rollback is a plain erase of the edges in
/// `committed`.
template <typename RouteFn>
Choice tentative_eft(const dag::TaskGraph& graph, const Schedule& out,
                     const MachineState& machines, const AlgorithmSpec& spec,
                     ExclusiveNetworkState& network, RouteFn&& route,
                     std::vector<dag::EdgeId>& committed, double weight,
                     double ready_moment, std::span<const dag::EdgeId> in,
                     std::vector<obs::ProcessorCandidate>* candidates) {
  const net::Topology& topology = network.topology();
  Choice choice;
  double best_start = 0.0;
  for (net::NodeId processor : topology.processors()) {
    committed.clear();
    double data_ready = ready_moment;
    for (dag::EdgeId e : in) {
      const dag::Edge& edge = graph.edge(e);
      const TaskPlacement& src = out.task(edge.src);
      double arrival = src.finish;
      if (src.processor != processor && edge.cost > 0.0) {
        const double ship_time =
            spec.eager_communication ? src.finish : ready_moment;
        const net::Route& path =
            route(src.processor, processor, ship_time, edge.cost);
        arrival = network.commit_edge_basic(e, path, ship_time, edge.cost);
        committed.push_back(e);
      }
      data_ready = std::max(data_ready, arrival);
    }
    const double duration = weight / topology.processor_speed(processor);
    const double start = machines.start_for(processor, data_ready, duration,
                                            spec.task_insertion);
    const double finish = start + duration;
    if (candidates != nullptr) {
      candidates->push_back(obs::ProcessorCandidate{
          static_cast<std::uint32_t>(processor.index()), data_ready,
          finish});
    }
    if (finish < choice.score) {
      choice.score = finish;
      best_start = start;
      choice.processor = processor;
    }
    for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
      network.uncommit_edge(*it);
    }
  }
  choice.expected_start = best_start;
  choice.scored = topology.num_processors();
  return choice;
}

// ---------------------------------------------------------------------------
// Modified routing (§4.3): Dijkstra relaxing on the tentative per-link
// finish time of the state's probe. The probe runs once per relaxation,
// the innermost loop of the engine, so each state gets a concrete lambda
// the search template inlines.

void probe_route(const ExclusiveNetworkState& network,
                 const net::TransitAdjacency& adjacency, net::NodeId from,
                 net::NodeId to, double ship_time, double cost,
                 net::RoutingWorkspace& workspace, net::Route& route) {
  const auto probe = [&network, cost](net::LinkId link,
                                      const net::ProbeState& state) {
    const timeline::Placement placement = network.probe_link(
        link, state.earliest_start, state.min_finish, cost);
    return net::ProbeResult{placement.start, placement.finish};
  };
  net::dijkstra_route_probe(adjacency, from, to, ship_time, probe, workspace,
                            route);
}

/// Relaxation key: earliest finish of the full volume using the link's
/// remaining bandwidth (the bandwidth analogue of §4.3). This probe never
/// returns a finish below `min_finish` or a first flow before the
/// arrival, so the goal-directed search finds Dijkstra's very route; the
/// exclusive probe above can drift one ulp low and keeps plain Dijkstra.
void probe_route(const BandwidthNetworkState& network,
                 const net::TransitAdjacency& adjacency, net::NodeId from,
                 net::NodeId to, double ship_time, double cost,
                 net::RoutingWorkspace& workspace, net::Route& route) {
  const auto probe = [&network, cost](net::LinkId link,
                                      const net::ProbeState& state) {
    return network.probe(link, state.earliest_start, state.min_finish,
                         cost);
  };
  net::goal_directed_route_probe(adjacency, from, to, ship_time, probe,
                                 workspace, route);
}

// ---------------------------------------------------------------------------
// Commit (§3, §4.4, §2.2, §5) and the decision-log hops it leaves

/// Books the routed communication on exclusive links, records it in
/// `out` and returns its arrival.
double commit(const AlgorithmSpec& spec, ExclusiveNetworkState& network,
              dag::EdgeId edge, const net::Route& route, double ship_time,
              double cost, Schedule& out) {
  using Kind = Communication::Kind;
  switch (spec.insertion) {
    case InsertionPolicyKind::kFirstFit: {
      // First-fit exclusive slots (§3), never displacing booked edges.
      const double arrival =
          network.commit_edge_basic(edge, route, ship_time, cost);
      out.set_communication(edge, Kind::kExclusive, arrival, route,
                            network.record(edge));
      return arrival;
    }
    case InsertionPolicyKind::kOptimal: {
      // Optimal insertion (§4.4): booked slots may defer within their
      // causality slack, so later commits can still move this edge's
      // occupations. No route or occupations here: the end-of-run
      // refresh (refresh_deferred) writes every routed edge from the
      // final link records.
      const double arrival =
          network.commit_edge_optimal(edge, route, ship_time, cost);
      out.set_communication(edge, Kind::kExclusive, arrival);
      return arrival;
    }
    case InsertionPolicyKind::kPacketized: {
      // Store-and-forward packets (§2.2): the message splits into
      // equal-volume packets; each hop of a packet starts only after the
      // packet fully crossed the previous hop.
      const std::size_t packets = static_cast<std::size_t>(
          std::max(1.0, std::ceil(cost / spec.packet_size)));
      const double volume = cost / static_cast<double>(packets);
      const double arrival =
          network.commit_packets(edge, route, ship_time, volume, packets);
      out.set_communication(edge, Kind::kPacketized, arrival, route,
                            network.record(edge), packets);
      return arrival;
    }
    case InsertionPolicyKind::kFluidBandwidth:
      break;
  }
  EDGESCHED_ASSERT_MSG(false, "fluid insertion on the exclusive state");
  return 0.0;
}

/// Fluid bandwidth sharing (§5): full remaining bandwidth on the first
/// hop, fluid forwarding on subsequent hops, rate profiles committed.
double commit(const AlgorithmSpec& /*spec*/, BandwidthNetworkState& network,
              dag::EdgeId edge, const net::Route& route, double ship_time,
              double cost, Schedule& out) {
  const BandwidthNetworkState::Transfer transfer =
      network.commit_edge(route, ship_time, cost);
  out.set_communication(edge, Communication::Kind::kBandwidth,
                        transfer.arrival, route, {}, 0, transfer.profiles);
  return transfer.arrival;
}

/// Exclusive hops come from the edge's link record as committed now
/// (under optimal insertion, later deferrals may still move them).
void append_hops(const ExclusiveNetworkState& network, dag::EdgeId edge,
                 const Schedule& /*out*/, std::vector<obs::EdgeHop>& hops) {
  const std::span<const LinkOccupation> record = network.record(edge);
  hops.reserve(hops.size() + record.size());
  for (const LinkOccupation& occ : record) {
    hops.push_back(obs::EdgeHop{static_cast<std::uint32_t>(occ.link.index()),
                                occ.start, occ.finish});
  }
}

void append_hops(const BandwidthNetworkState& /*network*/, dag::EdgeId edge,
                 const Schedule& out, std::vector<obs::EdgeHop>& hops) {
  const Communication comm = out.communication(edge);
  for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
    hops.push_back(obs::EdgeHop{
        static_cast<std::uint32_t>(comm.route[i].index()),
        comm.profiles[i].start_time(), comm.profiles[i].finish_time()});
  }
}

/// End of an optimal-insertion run: deferral may have moved earlier
/// edges' occupations after their communications were recorded, so every
/// routed edge is rewritten from its final link record. `route` is
/// scratch for the record's links.
void refresh_deferred(const ExclusiveNetworkState& network,
                      net::Route& route, Schedule& out) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < out.num_edges(); ++i) {
    total += network.record(dag::EdgeId(i)).size();
  }
  // Exact room up front: no growth copies, nothing left to trim.
  out.reserve(total, total);
  for (std::size_t i = 0; i < out.num_edges(); ++i) {
    const std::span<const LinkOccupation> record =
        network.record(dag::EdgeId(i));
    if (!record.empty()) {
      route.clear();
      for (const LinkOccupation& occ : record) {
        route.push_back(occ.link);
      }
      out.set_communication(dag::EdgeId(i), Communication::Kind::kExclusive,
                            record.back().finish, route, record);
    }
  }
}

// ---------------------------------------------------------------------------
// The §4 loop over one concrete network state.

template <typename Network>
Schedule run(const AlgorithmSpec& spec, const obs::SpanNames& names,
             const dag::TaskGraph& graph, const PlatformContext& platform) {
  constexpr bool kExclusive = std::is_same_v<Network, ExclusiveNetworkState>;
  const net::Topology& topology = platform.topology();
  // Pooled scratch, re-armed for this run: reusable buffers cleared, so a
  // recycled workspace and a fresh one start from identical state.
  const WorkspaceLease lease = platform.checkout();
  Workspace& workspace = *lease;
  workspace.begin_run();

  obs::Span run_span(names.schedule, "sched", graph.num_tasks());
  obs::DecisionLog* const log = obs::active_decision_log();
  Schedule out(spec.name, graph.num_tasks(), graph.num_edges());

  // Incremental ready queue instead of a materialised order vector:
  // O(E log V) heap work interleaved with placement, the same pop
  // sequence `list_order` drains.
  const std::vector<double> prio = priorities(graph, spec.priority);
  ReadyQueue ready(graph, prio);
  Network network = [&] {
    if constexpr (kExclusive) {
      return Network(topology, graph.num_edges());
    } else {
      return Network(topology);
    }
  }();
  MachineState machines(topology);
  // Arena sizing, once per run: timelines get capacity for the mean
  // per-processor load (geometric growth absorbs skewed assignments),
  // and the decision-candidate buffer below is hoisted out of the task
  // loop. 50k-task runs otherwise spend measurable time in slot-vector
  // reallocation.
  machines.reserve_slots(platform.slot_reserve_hint(graph.num_tasks()));

  // §4.3: the route of one communication. The returned reference stays
  // valid until the next call (it points into the platform's table or
  // `probed`, which every walk and search refills in place), so no route
  // costs a per-edge allocation. On a fabric with one simple path per
  // pair, the search and BFS can only return that path, so the walk
  // serves every routing policy.
  net::Route probed;
  const net::UniquePathRouter& unique_paths = platform.unique_paths();
  const auto route = [&](net::NodeId from, net::NodeId to, double ship_time,
                         double cost) -> const net::Route& {
    if (unique_paths.applies()) {
      unique_paths.route(from, to, probed);
      return probed;
    }
    switch (spec.routing) {
      case RoutingPolicyKind::kBfsMinimal:
        return platform.routes().route(from, to);
      case RoutingPolicyKind::kProbeDijkstra:
        break;
    }
    probe_route(network, platform.transit(), from, to, ship_time, cost,
                workspace.routing, probed);
    return probed;
  };

  const double mls = platform.mean_link_speed();
  std::vector<dag::EdgeId>& order_scratch = workspace.order_scratch;
  std::vector<obs::ProcessorCandidate>& candidates = workspace.candidates;
  std::uint64_t candidates_evaluated = 0;
  std::uint64_t edges_routed = 0;
  std::uint64_t tasks_placed = 0;

  dag::TaskId task;
  while (ready.pop(task)) {
    const double weight = graph.weight(task);

    // Dynamic model (§4.1): the task's placement is decided when it
    // becomes ready, so its communications cannot leave earlier than the
    // latest predecessor finish.
    double ready_moment = 0.0;
    for (dag::EdgeId e : graph.in_edges(task)) {
      ready_moment =
          std::max(ready_moment, out.task(graph.edge(e).src).finish);
    }

    // Edge priority (§4.2): the order the incoming edges book in, fixed
    // before selection so tentative trials and the final commit agree.
    // By cost, the costliest edge books first; equal costs keep
    // predecessor order. A binary insertion sort into the scratch keeps
    // that order (each edge goes after every one costing at least as
    // much) without the buffer std::stable_sort allocates per call.
    std::span<const dag::EdgeId> in = graph.in_edges(task);
    if (spec.edge_order == EdgeOrderPolicyKind::kByCostDescending) {
      order_scratch.clear();
      for (dag::EdgeId e : in) {
        order_scratch.insert(
            std::upper_bound(order_scratch.begin(), order_scratch.end(), e,
                             [&](dag::EdgeId a, dag::EdgeId b) {
                               return graph.cost(a) > graph.cost(b);
                             }),
            e);
      }
      in = order_scratch;
    }

    // Processor selection (§4.1).
    Choice choice;
    candidates.clear();
    {
      obs::Span select_span(names.select_processor, "sched", task.value());
      std::vector<obs::ProcessorCandidate>* const logged =
          log != nullptr ? &candidates : nullptr;
      switch (spec.selection) {
        case SelectionPolicyKind::kBlindEft:
          choice = blind_eft(topology, machines, spec.task_insertion, weight,
                             ready_moment, logged);
          break;
        case SelectionPolicyKind::kTentativeEft:
          // AlgorithmSpec::validate pairs tentative EFT with first-fit
          // insertion, hence with the exclusive state.
          if constexpr (kExclusive) {
            choice = tentative_eft(graph, out, machines, spec, network,
                                   route, workspace.trial_edges, weight,
                                   ready_moment, in, logged);
          } else {
            EDGESCHED_ASSERT_MSG(false, "tentative EFT on bandwidth links");
          }
          break;
        case SelectionPolicyKind::kMlsEstimate:
          choice = mls_estimate(graph, out, topology, machines, mls, weight,
                                in, logged);
          break;
      }
    }
    candidates_evaluated += choice.scored;
    if (log != nullptr) {
      log->record(obs::TaskDecision{
          spec.name, static_cast<std::uint32_t>(task.index()),
          static_cast<std::uint32_t>(choice.processor.index()), choice.score,
          std::move(candidates)});
    }
    const net::NodeId chosen = choice.processor;

    // Route and commit the incoming communications (§4.3, §4.4).
    double data_ready = ready_moment;
    for (dag::EdgeId e : in) {
      const dag::Edge& edge = graph.edge(e);
      const TaskPlacement& src = out.task(edge.src);
      double arrival = src.finish;
      double ship_time = src.finish;
      const bool local = src.processor == chosen || edge.cost <= 0.0;
      if (local) {
        out.set_communication(e, Communication::Kind::kLocal, arrival);
      } else {
        obs::Span route_span(names.route_edge, "sched", e.value());
        ship_time = spec.eager_communication ? src.finish : ready_moment;
        const net::Route& path =
            route(src.processor, chosen, ship_time, edge.cost);
        arrival = commit(spec, network, e, path, ship_time, edge.cost, out);
        ++edges_routed;
      }
      if (log != nullptr) {
        obs::EdgeDecision decision;
        decision.algorithm = spec.name;
        decision.edge = static_cast<std::uint32_t>(e.index());
        decision.src_task = static_cast<std::uint32_t>(edge.src.index());
        decision.dst_task = static_cast<std::uint32_t>(edge.dst.index());
        decision.local = local;
        decision.ship_time = ship_time;
        decision.arrival = arrival;
        if (!decision.local) {
          append_hops(network, e, out, decision.hops);
        }
        log->record(std::move(decision));
      }
      data_ready = std::max(data_ready, arrival);
    }

    // Place the task.
    const double duration = weight / topology.processor_speed(chosen);
    const double start = machines.start_for(chosen, data_ready, duration,
                                            spec.task_insertion);
    EDGESCHED_ASSERT_MSG(
        choice.expected_start < 0.0 ||
            std::abs(start - choice.expected_start) <= 1e-9,
        "re-commit diverged from the tentative evaluation");
    machines.commit(chosen, task, start, duration);
    out.place_task(task, TaskPlacement{chosen, start, start + duration});
    ++tasks_placed;
    ready.release_successors(graph, task);
  }

  if constexpr (kExclusive) {
    if (spec.insertion == InsertionPolicyKind::kOptimal) {
      refresh_deferred(network, probed, out);
    }
  }
  out.shrink_to_fit();

  obs::HotCounters& counters = obs::hot_counters();
  counters.tasks_placed.increment(tasks_placed);
  counters.candidates_evaluated.increment(candidates_evaluated);
  if (edges_routed > 0) {
    counters.edges_routed.increment(edges_routed);
  }
  // The Dijkstra work batched in the workspace reaches the global
  // registry once per run, whether the workspace was fresh or recycled.
  workspace.routing.flush_search_work();
  // One coarse flight-recorder milestone per schedule() call — not per
  // task or edge — so the always-on recorder stays off the hot path.
  obs::flight_recorder().record(obs::FlightEventKind::kSchedule,
                                names.schedule, out.makespan(),
                                graph.num_tasks(), out.makespan());
  return out;
}

/// The packetized model's work bound: every edge splits into at most
/// kMaxPacketsPerEdge packets, whether or not it ends up routed.
void check_packet_counts(const dag::TaskGraph& graph, double packet_size) {
  for (std::size_t i = 0; i < graph.num_edges(); ++i) {
    const dag::EdgeId e(i);
    const double packets = std::ceil(graph.cost(e) / packet_size);
    if (packets > static_cast<double>(kMaxPacketsPerEdge)) [[unlikely]] {
      const dag::Edge& edge = graph.edge(e);
      std::ostringstream message;
      message << "SpecScheduler: edge " << i << " (task "
              << edge.src.value() << " -> task " << edge.dst.value()
              << ") splits into " << std::fixed << std::setprecision(0)
              << packets << std::defaultfloat << std::setprecision(6)
              << " packets of size " << packet_size
              << "; the packetized model books at most "
              << kMaxPacketsPerEdge << " per edge";
      throw PacketCountError(message.str());
    }
  }
}

}  // namespace

SpecScheduler::SpecScheduler(AlgorithmSpec spec)
    : spec_(std::move(spec)), names_(spec_.name) {
  spec_.validate();
}

Schedule SpecScheduler::schedule(const dag::TaskGraph& graph,
                                 const PlatformContext& platform) const {
  check_inputs(platform.topology());
  if (spec_.insertion == InsertionPolicyKind::kPacketized) {
    check_packet_counts(graph, spec_.packet_size);
  }
  if (spec_.insertion == InsertionPolicyKind::kFluidBandwidth) {
    return run<BandwidthNetworkState>(spec_, names_, graph, platform);
  }
  return run<ExclusiveNetworkState>(spec_, names_, graph, platform);
}

}  // namespace edgesched::sched
