#include "sched/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "sched/intra_run.hpp"
#include "sched/network_model.hpp"
#include "sched/network_state.hpp"
#include "sched/policies.hpp"
#include "sched/priorities.hpp"
#include "sched/ready_queue.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace edgesched::sched {

ListSchedulingEngine::ListSchedulingEngine(AlgorithmSpec spec)
    : spec_(std::move(spec)), names_(spec_.name) {
  spec_.validate();
}

Schedule ListSchedulingEngine::run(const dag::TaskGraph& graph,
                                   const net::Topology& topology) const {
  // Standalone run: local workspace, everything derived from the raw
  // topology (lazy BFS cache, O(L) MLS reduction when needed).
  Workspace workspace;
  return run_impl(graph, topology, nullptr, workspace);
}

Schedule ListSchedulingEngine::run(const dag::TaskGraph& graph,
                                   const PlatformContext& platform) const {
  // Shared-platform run: lease pooled scratch, reuse the context's
  // immutable route table and cached reductions.
  const WorkspaceLease lease = platform.checkout();
  return run_impl(graph, platform.topology(), &platform, *lease);
}

Schedule ListSchedulingEngine::run_impl(const dag::TaskGraph& graph,
                                        const net::Topology& topology,
                                        const PlatformContext* platform,
                                        Workspace& workspace) const {
  obs::Span run_span(names_.schedule, "sched", graph.num_tasks());
  obs::DecisionLog* const log = obs::active_decision_log();
  Schedule out(spec_.name, graph.num_tasks(), graph.num_edges());

  // Re-arm the (possibly pooled) workspace: reusable buffers cleared. A
  // fresh local workspace goes through the same call, so both paths see
  // identical scratch state.
  workspace.begin_run();

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
  const std::size_t num_procs = std::max<std::size_t>(
      std::size_t{1}, topology.num_processors());
  machines.reserve_slots(platform != nullptr
                             ? platform->slot_reserve_hint(graph.num_tasks())
                             : graph.num_tasks() / num_procs + 8);
  // Routing policy over the per-run epoch-stamped Dijkstra workspace
  // and, when a platform is shared, its immutable all-pairs BFS table.
  const std::unique_ptr<RoutingPolicy> routing = make_routing_policy(
      spec_, topology, workspace.routing,
      platform != nullptr ? &platform->routes() : nullptr);
  // The MLS reduction is only consulted by the kMlsEstimate policy;
  // compute (or fetch from the platform) exactly when it is.
  const double mean_link_speed =
      spec_.selection == SelectionPolicyKind::kMlsEstimate
          ? (platform != nullptr ? platform->mean_link_speed()
                                 : topology.mean_link_speed())
          : 0.0;
  const std::unique_ptr<ProcessorSelectionPolicy> selection =
      make_selection_policy(spec_, mean_link_speed);
  const std::unique_ptr<EdgeOrderPolicy> edge_order =
      make_edge_order_policy(spec_);
  const std::unique_ptr<InsertionPolicy> insertion =
      make_insertion_policy(spec_);

  const EngineState state{graph,    topology, spec_,   out,
                          machines, *network, *routing};
  std::vector<dag::EdgeId>& order_scratch = workspace.order_scratch;
  std::vector<obs::ProcessorCandidate>& candidates = workspace.candidates;
  std::uint64_t edges_routed = 0;
  std::uint64_t tasks_placed = 0;

  // Intra-run candidate-scan parallelism (docs/parallelism.md). When the
  // selection policy scores processors independently and read-only, the
  // engine owns the scan over the processor list — at EVERY worker
  // count, including 1, so the serial path and the parallel path are the
  // same code and the schedule is byte-identical at any setting. The
  // scan writes per-processor scores into disjoint `static_chunk`
  // ranges of `workspace.scores`; the reduction below walks them in
  // processor-index order, reproducing exactly the serial policy's
  // first-strict-minimum tie-break. Policies that mutate state between
  // candidates (tentative EFT) keep their serial `select` call.
  const std::vector<net::NodeId>& processors = topology.processors();
  const bool scan_capable =
      selection->supports_candidate_scan() && !processors.empty();
  const std::size_t lanes =
      scan_capable
          ? std::min(intra_run_threads(),
                     std::max<std::size_t>(std::size_t{1}, processors.size()))
          : std::size_t{1};
  util::WorkerTeam team(lanes);
  // Per-lane counter sinks: lane 0 batches into the run's own workspace;
  // each extra lane leases a pooled workspace (or owns fresh scratch on
  // standalone runs) so workers never contend on a shared tally.
  std::vector<Workspace*> lane_workspaces{&workspace};
  std::vector<std::unique_ptr<WorkspaceLease>> lane_leases;
  std::vector<std::unique_ptr<Workspace>> lane_owned;
  for (std::size_t lane = 1; lane < team.lanes(); ++lane) {
    if (platform != nullptr) {
      lane_leases.push_back(std::make_unique<WorkspaceLease>(*platform));
      lane_workspaces.push_back(&**lane_leases.back());
    } else {
      lane_owned.push_back(std::make_unique<Workspace>());
      lane_workspaces.push_back(lane_owned.back().get());
    }
    lane_workspaces.back()->begin_run();
  }

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
      if (scan_capable) {
        // Speculative read-only scan: every lane probes the machine
        // timelines concurrently, nothing commits until the winner is
        // known. The revision/generation assertion pins that contract.
        std::vector<obs::ProcessorCandidate>& scores = workspace.scores;
        scores.resize(processors.size());
        const std::uint64_t machines_before = machines.revision();
        const std::uint64_t network_before = network->generation();
        const ProcessorSelectionPolicy& policy = *selection;
        team.run(processors.size(), [&](std::size_t lane, std::size_t begin,
                                        std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) {
            scores[p] = policy.score_candidate(state, task, weight,
                                               ready_moment, in,
                                               processors[p]);
          }
          lane_workspaces[lane]->candidates_evaluated +=
              static_cast<std::uint64_t>(end - begin);
        });
        EDGESCHED_ASSERT_MSG(machines.revision() == machines_before &&
                                 network->generation() == network_before,
                             "candidate scan mutated engine state");
        // Deterministic reduction: first strict minimum of the score in
        // processor-index order — byte-identical to the serial loop's
        // `if (finish < best_finish)` at any lane count.
        std::size_t best = 0;
        for (std::size_t p = 1; p < scores.size(); ++p) {
          if (scores[p].estimate < scores[best].estimate) {
            best = p;
          }
        }
        choice = ProcessorSelectionPolicy::Choice{
            processors[best], scores[best].estimate, -1.0};
        if (log != nullptr) {
          candidates.assign(scores.begin(), scores.end());
        }
      } else {
        choice = selection->select(state, task, weight, ready_moment, in,
                                   log != nullptr ? &candidates : nullptr);
      }
    }
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
  if (edges_routed > 0) {
    counters.edges_routed.increment(edges_routed);
  }
  // Deterministic per-run counter flush: every lane's batched tallies
  // (candidate evaluations, Dijkstra relaxations) reach
  // the global registry here, so totals are identical at every worker
  // count and whether the workspaces were fresh or recycled.
  for (Workspace* lane_workspace : lane_workspaces) {
    lane_workspace->flush_counters();
  }
  // One coarse flight-recorder milestone per schedule() call — not per
  // task or edge — so the always-on recorder stays off the hot path.
  obs::flight_recorder().record(obs::FlightEventKind::kSchedule,
                                names_.schedule, out.makespan(),
                                graph.num_tasks(), out.makespan());
  return out;
}

}  // namespace edgesched::sched
