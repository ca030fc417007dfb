#include "sched/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "sched/network_model.hpp"
#include "sched/network_state.hpp"
#include "sched/policies.hpp"
#include "sched/priorities.hpp"
#include "sched/ready_queue.hpp"
#include "util/error.hpp"

namespace edgesched::sched {

ListSchedulingEngine::ListSchedulingEngine(AlgorithmSpec spec)
    : spec_(std::move(spec)), names_(spec_.name) {
  spec_.validate();
}

Schedule ListSchedulingEngine::run(const dag::TaskGraph& graph,
                                   const PlatformContext& platform) const {
  const net::Topology& topology = platform.topology();
  // Pooled scratch, re-armed for this run: reusable buffers cleared, so a
  // recycled workspace and a fresh one start from identical state.
  const WorkspaceLease lease = platform.checkout();
  Workspace& workspace = *lease;
  workspace.begin_run();

  obs::Span run_span(names_.schedule, "sched", graph.num_tasks());
  obs::DecisionLog* const log = obs::active_decision_log();
  Schedule out(spec_.name, graph.num_tasks(), graph.num_edges());

  // Incremental ready queue instead of a materialised order vector:
  // O(E log V) heap work interleaved with placement, identical pop
  // sequence to `list_order` (tests/ready_queue_property_test.cpp).
  const std::vector<double> prio = priorities(graph, spec_.priority);
  ReadyQueue ready(graph, prio);
  const std::unique_ptr<NetworkStateModel> network =
      make_network_model(spec_, topology, graph.num_edges());
  MachineState machines(topology);
  // Arena sizing, once per run: timelines get capacity for the mean
  // per-processor load (geometric growth absorbs skewed assignments),
  // and the decision-candidate buffer below is hoisted out of the task
  // loop. 50k-task runs otherwise spend measurable time in slot-vector
  // reallocation.
  machines.reserve_slots(platform.slot_reserve_hint(graph.num_tasks()));
  // Routing policy over the per-run epoch-stamped Dijkstra workspace
  // and the platform's minimal-route table.
  const std::unique_ptr<RoutingPolicy> routing = make_routing_policy(
      spec_, topology, workspace.routing, platform.routes());
  const std::unique_ptr<ProcessorSelectionPolicy> selection =
      make_selection_policy(spec_, platform.mean_link_speed());
  const std::unique_ptr<EdgeOrderPolicy> edge_order =
      make_edge_order_policy(spec_);
  const std::unique_ptr<InsertionPolicy> insertion =
      make_insertion_policy(spec_);

  const EngineState state{graph,    topology, spec_,   out,
                          machines, *network, *routing};
  std::vector<dag::EdgeId>& order_scratch = workspace.order_scratch;
  std::vector<obs::ProcessorCandidate>& candidates = workspace.candidates;
  const std::vector<net::NodeId>& processors = topology.processors();
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
    const std::vector<dag::EdgeId>& in =
        edge_order->order(graph, task, order_scratch);

    // Processor selection (§4.1).
    ProcessorSelectionPolicy::Choice choice;
    candidates.clear();
    {
      obs::Span select_span(names_.select_processor, "sched", task.value());
      choice = selection->select(state, task, weight, ready_moment, in,
                                 log != nullptr ? &candidates : nullptr);
    }
    candidates_evaluated += processors.size();
    if (log != nullptr) {
      log->record(obs::TaskDecision{
          spec_.name, static_cast<std::uint32_t>(task.index()),
          static_cast<std::uint32_t>(choice.processor.index()), choice.score,
          std::move(candidates)});
    }
    const net::NodeId chosen = choice.processor;

    // Route and commit the incoming communications (§4.3, §4.4).
    double data_ready = ready_moment;
    for (dag::EdgeId e : in) {
      const dag::Edge& edge = graph.edge(e);
      const TaskPlacement& src = out.task(edge.src);
      EdgeCommunication comm;
      comm.arrival = src.finish;
      double ship_time = src.finish;
      if (src.processor == chosen || edge.cost <= 0.0) {
        comm.kind = EdgeCommunication::Kind::kLocal;
      } else {
        obs::Span route_span(names_.route_edge, "sched", e.value());
        ship_time = spec_.eager_communication ? src.finish : ready_moment;
        const net::Route& route = routing->route(
            *network, src.processor, chosen, ship_time, edge.cost);
        insertion->commit(*network, e, route, ship_time, edge.cost, comm);
        ++edges_routed;
      }
      if (log != nullptr) {
        obs::EdgeDecision decision;
        decision.algorithm = spec_.name;
        decision.edge = static_cast<std::uint32_t>(e.index());
        decision.src_task = static_cast<std::uint32_t>(edge.src.index());
        decision.dst_task = static_cast<std::uint32_t>(edge.dst.index());
        decision.local = comm.kind == EdgeCommunication::Kind::kLocal;
        decision.ship_time = ship_time;
        decision.arrival = comm.arrival;
        if (!decision.local) {
          insertion->append_hops(*network, e, comm, decision.hops);
        }
        log->record(std::move(decision));
      }
      data_ready = std::max(data_ready, comm.arrival);
      out.set_communication(e, std::move(comm));
    }

    // Place the task.
    const double duration = weight / topology.processor_speed(chosen);
    const double start = machines.start_for(chosen, data_ready, duration,
                                            spec_.task_insertion);
    EDGESCHED_ASSERT_MSG(
        choice.expected_start < 0.0 ||
            std::abs(start - choice.expected_start) <= 1e-9,
        "re-commit diverged from the tentative evaluation");
    machines.commit(chosen, task, start, duration);
    out.place_task(task, TaskPlacement{chosen, start, start + duration});
    ++tasks_placed;
    ready.release_successors(graph, task);
  }
  throw_if(!ready.all_popped(),
           "ListSchedulingEngine: graph contains a cycle");

  network->finalize(graph, out);

  obs::HotCounters& counters = obs::hot_counters();
  counters.tasks_placed.increment(tasks_placed);
  counters.candidates_evaluated.increment(candidates_evaluated);
  if (edges_routed > 0) {
    counters.edges_routed.increment(edges_routed);
  }
  // The Dijkstra relaxations batched in the workspace reach the global
  // registry once per run, whether the workspace was fresh or recycled.
  workspace.routing.flush_relaxations();
  // One coarse flight-recorder milestone per schedule() call — not per
  // task or edge — so the always-on recorder stays off the hot path.
  obs::flight_recorder().record(obs::FlightEventKind::kSchedule,
                                names_.schedule, out.makespan(),
                                graph.num_tasks(), out.makespan());
  return out;
}

}  // namespace edgesched::sched
