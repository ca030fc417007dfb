// Schedule visualisation exports.
//
// * `write_chrome_trace` emits a Chrome trace (written by
//   `obs::TraceEventWriter`): load it in https://ui.perfetto.dev to
//   inspect a schedule, one row per processor and per contention domain.
// * `write_ascii_gantt` renders a fixed-width Gantt chart for terminals
//   and test goldens.
#pragma once

#include <iosfwd>
#include <string>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::sched {

/// Tasks on pid 0 (tid = processor), link occupations on pid 1 (tid =
/// contention domain); 1 model time unit = 1 µs.
void write_chrome_trace(std::ostream& out, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const Schedule& schedule);

/// 72-column ASCII Gantt chart, one row per processor and then one per
/// busy contention domain: '#' marks task execution, '=' marks link
/// occupation, '.' idle time.
void write_ascii_gantt(std::ostream& out, const dag::TaskGraph& graph,
                       const net::Topology& topology,
                       const Schedule& schedule);

}  // namespace edgesched::sched
