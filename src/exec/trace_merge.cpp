#include "exec/trace_merge.hpp"

#include <string>

#include "obs/trace.hpp"

namespace edgesched::exec {

namespace {

constexpr std::uint32_t kPidPlanned = 0;
constexpr std::uint32_t kPidExecuted = 1;
constexpr std::uint32_t kPidEvents = 2;

/// Track id for link-fault instants: offset past the processor tracks so
/// processors and links share the events process without colliding.
std::uint32_t link_tid(const net::Topology& topology, std::uint32_t link) {
  return static_cast<std::uint32_t>(topology.num_nodes()) + link;
}

}  // namespace

void write_merged_trace(std::ostream& os, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const sched::Schedule& schedule,
                        const ExecutionReport& report) {
  obs::TraceEventWriter w(os);
  const obs::TraceArg run{"run_id", report.run_id};

  // Track naming: the same processor name appears under both the planned
  // and executed processes, so the two rows sit adjacent per resource.
  w.process_name(kPidPlanned, "planned [" + schedule.algorithm() + "]");
  w.process_name(kPidExecuted,
                 report.completed ? "executed" : "executed (FAILED)");
  w.process_name(kPidEvents, "faults+recovery");
  for (const net::NodeId p : topology.processors()) {
    const std::string& name = topology.node(p).name;
    w.thread_name(kPidPlanned, p.value(), name);
    w.thread_name(kPidExecuted, p.value(), name);
    w.thread_name(kPidEvents, p.value(), name);
  }
  for (std::uint32_t l = 0; l < topology.num_links(); ++l) {
    w.thread_name(kPidEvents, link_tid(topology, l),
                  "link " + std::to_string(l));
  }

  // Planner intent.
  for (const dag::TaskId t : graph.all_tasks()) {
    const sched::TaskPlacement& placement = schedule.task(t);
    if (placement.placed()) {
      const obs::TraceArg args[] = {run, {"task", t.value()}};
      w.complete(kPidPlanned, placement.processor.value(),
                 graph.name(t), placement.start,
                 placement.finish - placement.start, args);
    }
  }

  // Achieved slots (final attempt of every task that ran).
  for (const TaskRecord& record : report.tasks) {
    if (record.attempts == 0) {
      continue;  // never started (aborted run)
    }
    std::string name = graph.name(dag::TaskId(record.task));
    if (record.attempts > 1) {
      name += " (attempt " + std::to_string(record.attempts) + ")";
    }
    const obs::TraceArg args[] = {run, {"task", record.task},
                                  {"attempts", record.attempts},
                                  {"tardiness", record.tardiness()}};
    w.complete(kPidExecuted, record.processor, name, record.start,
               record.finish - record.start, args);
  }

  // Faults land on the track of the resource they destroyed.
  for (const FaultRecord& fault : report.faults) {
    const std::uint32_t tid = fault.kind == "processor"
                                  ? fault.target
                                  : link_tid(topology, fault.target);
    const obs::TraceArg args[] = {run, {"kind", fault.kind},
                                  {"target", fault.target},
                                  {"permanent", fault.permanent},
                                  {"killed", fault.killed}};
    w.instant(kPidEvents, tid,
              std::string("fault ") + (fault.permanent ? "permanent " : "") +
                  fault.kind + " " + std::to_string(fault.target),
              fault.time, args);
  }

  // Recovery actions (retry / reschedule / abort) on the summary track.
  for (const RecoveryRecord& recovery : report.recoveries) {
    std::string name = recovery.action;
    if (!recovery.algorithm.empty()) {
      name += " [" + recovery.algorithm + "]";
    }
    const obs::TraceArg args[] = {
        run, {"action", recovery.action},
        {"tasks_remaining", recovery.tasks_remaining},
        {"replan_makespan", recovery.replan_makespan}};
    w.instant(kPidEvents, 0, name, recovery.time, args);
  }

  w.finish();
}

}  // namespace edgesched::exec
