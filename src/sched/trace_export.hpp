// Schedule visualisation exports.
//
// * `write_chrome_trace` emits Chrome trace-event JSON: load the file in
//   chrome://tracing or https://ui.perfetto.dev to inspect a schedule
//   interactively — one row per processor, one per contention domain,
//   with tasks and communications as duration events.
// * `write_ascii_gantt` renders a fixed-width Gantt chart for terminals
//   and test goldens.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::sched {

/// Chrome trace-event JSON (the "traceEvents" array format). Durations
/// are exported in microseconds (1 model time unit = 1 µs). Processors
/// become pid 0 rows, contention domains pid 1 rows.
void write_chrome_trace(std::ostream& out, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const Schedule& schedule);

struct GanttOptions {
  /// Character columns of the time axis.
  std::size_t width = 72;
  /// Include one row per contention domain below the processor rows.
  bool include_links = true;
};

/// Fixed-width ASCII Gantt chart: '#' marks task execution, '=' marks
/// link occupation, '.' idle time.
void write_ascii_gantt(std::ostream& out, const dag::TaskGraph& graph,
                       const net::Topology& topology,
                       const Schedule& schedule,
                       const GanttOptions& options = {});

}  // namespace edgesched::sched
