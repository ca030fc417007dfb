// Merged plan-vs-execution Perfetto timeline: the schedule's placements
// (pid 0 "planned"), the report's achieved slots (pid 1 "executed") and
// fault and recovery instants (pid 2) in one trace, with the planned and
// executed rows of each processor adjacent. Track layout: the "Chrome
// trace documents" section of docs/observability.md. Every event's args
// carries the report's `run_id`. The output depends only on the inputs,
// so same-seed runs write byte-identical traces.
#pragma once

#include <iosfwd>

#include "dag/task_graph.hpp"
#include "exec/report.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::exec {

/// Writes the merged planned/executed/fault timeline of one run.
void write_merged_trace(std::ostream& os, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const sched::Schedule& schedule,
                        const ExecutionReport& report);

}  // namespace edgesched::exec
