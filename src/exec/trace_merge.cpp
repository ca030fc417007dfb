#include "exec/trace_merge.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace edgesched::exec {

namespace {

constexpr int kPidPlanned = 0;
constexpr int kPidExecuted = 1;
constexpr int kPidEvents = 2;

/// Track id for link-fault instants: offset past the processor tracks so
/// processors and links share the events process without colliding.
std::uint32_t link_tid(const net::Topology& topology, std::uint32_t link) {
  return static_cast<std::uint32_t>(topology.num_nodes()) + link;
}

class TraceWriter {
 public:
  TraceWriter(std::ostream& os, std::uint64_t run_id)
      : os_(os), run_id_(run_id) {
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  void process_name(int pid, const std::string& name) {
    begin_event();
    os_ << "{\"ph\":\"M\",\"pid\":" << pid
        << ",\"name\":\"process_name\",\"args\":{\"name\":\""
        << obs::json_escape(name) << "\"}}";
  }

  void thread_name(int pid, std::uint32_t tid, const std::string& name) {
    begin_event();
    os_ << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << obs::json_escape(name) << "\"}}";
  }

  void span(int pid, std::uint32_t tid, const std::string& name,
            double start, double duration, const std::string& extra_args) {
    begin_event();
    os_ << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << obs::json_escape(name) << "\",\"ts\":" << start
        << ",\"dur\":" << duration << ",\"args\":{\"run_id\":" << run_id_;
    if (!extra_args.empty()) {
      os_ << ',' << extra_args;
    }
    os_ << "}}";
  }

  void instant(int pid, std::uint32_t tid, const std::string& name,
               double time, const std::string& extra_args) {
    begin_event();
    os_ << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << obs::json_escape(name) << "\",\"ts\":" << time
        << ",\"args\":{\"run_id\":" << run_id_;
    if (!extra_args.empty()) {
      os_ << ',' << extra_args;
    }
    os_ << "}}";
  }

  void finish() { os_ << "\n]}\n"; }

 private:
  void begin_event() {
    if (!first_) {
      os_ << ',';
    }
    first_ = false;
    os_ << '\n';
  }

  std::ostream& os_;
  std::uint64_t run_id_;
  bool first_ = true;
};

}  // namespace

void write_merged_trace(std::ostream& os, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const sched::Schedule& schedule,
                        const ExecutionReport& report) {
  TraceWriter w(os, report.run_id);

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
      w.span(kPidPlanned, placement.processor.value(), graph.task(t).name,
             placement.start, placement.finish - placement.start,
             "\"task\":" + std::to_string(t.value()));
    }
  }

  // Achieved slots (final attempt of every task that ran).
  for (const TaskRecord& record : report.tasks) {
    if (record.attempts == 0) {
      continue;  // never started (aborted run)
    }
    std::ostringstream args;
    args << "\"task\":" << record.task << ",\"attempts\":" << record.attempts
         << ",\"tardiness\":" << record.tardiness();
    std::string name = graph.task(dag::TaskId(record.task)).name;
    if (record.attempts > 1) {
      name += " (attempt " + std::to_string(record.attempts) + ")";
    }
    w.span(kPidExecuted, record.processor, name, record.start,
           record.finish - record.start, args.str());
  }

  // Faults land on the track of the resource they destroyed.
  for (const FaultRecord& fault : report.faults) {
    const std::uint32_t tid = fault.kind == "processor"
                                  ? fault.target
                                  : link_tid(topology, fault.target);
    std::ostringstream args;
    args << "\"kind\":\"" << fault.kind << "\",\"target\":" << fault.target
         << ",\"permanent\":" << (fault.permanent ? "true" : "false")
         << ",\"killed\":" << fault.killed;
    w.instant(kPidEvents, tid,
              std::string("fault ") + (fault.permanent ? "permanent " : "") +
                  fault.kind + " " + std::to_string(fault.target),
              fault.time, args.str());
  }

  // Recovery actions (retry / reschedule / abort) on the summary track.
  for (const RecoveryRecord& recovery : report.recoveries) {
    std::ostringstream args;
    args << "\"action\":\"" << recovery.action << "\",\"tasks_remaining\":"
         << recovery.tasks_remaining
         << ",\"replan_makespan\":" << recovery.replan_makespan;
    std::string name = recovery.action;
    if (!recovery.algorithm.empty()) {
      name += " [" + recovery.algorithm + "]";
    }
    w.instant(kPidEvents, 0, name, recovery.time, args.str());
  }

  w.finish();
}

}  // namespace edgesched::exec
