// Merged plan-vs-execution Perfetto timeline.
//
// `sched::write_chrome_trace` shows what the planner intended;
// `ExecutionReport` records what actually happened. This exporter lays
// both onto one Chrome trace-event file so Perfetto shows them aligned
// per resource:
//
//   pid 0 "planned"  — one track per processor, the schedule's task
//                      placements (the planner's intent),
//   pid 1 "executed" — one track per processor, the achieved task slots
//                      from the report (late/retried/migrated work is
//                      visibly shifted against pid 0),
//   pid 2 "events"   — instant events: injected faults on the track of
//                      the processor/link they hit, recovery actions
//                      (retry / reschedule / abort) on track 0.
//
// Conventions follow sched/trace_export: 1 model time unit = 1 µs of
// trace time, "X" complete events, "M" metadata naming every track.
// Every event's args carries the report's `run_id`, so the merged trace
// correlates with the decision-log JSONL, the runtime tracer export and
// the flight-recorder postmortem of the same run. Deterministic: output
// depends only on the inputs (no clocks), so same-seed runs write
// byte-identical traces.
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
