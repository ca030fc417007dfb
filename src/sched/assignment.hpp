// Fixed-assignment contention scheduling.
//
// Several schedulers — the genetic algorithm and simulated annealing
// search (metaheuristics the paper's introduction cites as the
// alternative family) and the contention replay of a classic schedule —
// all need the same primitive: given a complete task→processor map,
// build the contention-aware schedule for it (ready-moment shipping, BFS
// routes, first-fit link insertion, exclusive links). This module is that
// primitive; its two entries differ only in the task order they walk.
#pragma once

#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::sched {

/// processor[i] is the processor of task i; every entry must name a valid
/// processor of the topology.
using Assignment = std::vector<net::NodeId>;

/// Builds the full contention-aware schedule realising `assignment`,
/// labelled `label`. Edges are routed over minimal BFS paths and booked
/// with first-fit insertion; tasks execute in bottom-level list order
/// with insertion placement on processors (the list schedulers' default,
/// see AlgorithmSpec::task_insertion). The result passes the full
/// validator.
[[nodiscard]] Schedule schedule_assignment(
    const dag::TaskGraph& graph, const net::Topology& topology,
    const Assignment& assignment, std::string label = "ASSIGNMENT");

/// Convenience: makespan of `schedule_assignment` (the metaheuristics'
/// fitness function).
[[nodiscard]] double assignment_makespan(const dag::TaskGraph& graph,
                                         const net::Topology& topology,
                                         const Assignment& assignment);

/// Contention replay: what a contention-free schedule really costs.
/// Keeps `ideal`'s task-to-processor assignment and its task start order
/// (topological position breaks ties, so zero-length tasks stay
/// precedence-safe) and re-executes it on the real network with
/// insertion placement on processors. Start times stretch to actual data
/// arrivals; the schedule is labelled "<algorithm>-replay" and is valid
/// under the full validator. Throws std::invalid_argument when `ideal`
/// does not fit `graph` or places a task on anything but a processor of
/// `topology`.
[[nodiscard]] Schedule replay_under_contention(const dag::TaskGraph& graph,
                                               const net::Topology& topology,
                                               const Schedule& ideal);

/// Extracts the assignment realised by an existing schedule.
[[nodiscard]] Assignment assignment_of(const dag::TaskGraph& graph,
                                       const Schedule& schedule);

}  // namespace edgesched::sched
