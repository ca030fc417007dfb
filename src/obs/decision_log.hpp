// Structured scheduling decision log.
//
// The paper's contributions are decisions: which processor minimised the
// §4.1 estimate, which route the finish-time-keyed Dijkstra picked, and
// whether optimal insertion placed an edge first-fit or by deferring
// booked slots (Lemma 2). The schedulers record those decisions here and
// the log streams them as JSONL to its sink, so the CLI can dump an audit
// of a run and tests can assert *why* a schedule looks the way it does.
//
// Activation mirrors the tracer: a process-global `active` pointer, set
// by `ScopedDecisionLog` (RAII, restores the previous log). When no log
// is installed the per-decision cost is one relaxed atomic load at the
// top of `Scheduler::schedule` — the ids here are plain integers so the
// log stays independent of the dag/net layers.
//
// Thread model: `record` is mutex-serialised, so one log may absorb a
// parallel sweep (ordering across concurrent instances is then arrival
// order). Each record is written to the sink at once and never stored —
// constant memory for arbitrarily long runs.
//
// Run correlation: `record` stamps each decision with the thread's
// current run ID (obs/run_context) when the caller left `run` at 0, and
// the JSONL gains a `"run":N` member for stamped records — so one log
// absorbing a parallel sweep still attributes every line to its run.
//
// JSONL schema (one object per line, `type` discriminates; full schema
// reference in docs/observability.md):
//   {"type":"task","algorithm":"OIHSA","task":3,"chosen_processor":1,
//    "chosen_estimate":9.0,"candidates":[
//      {"processor":0,"ready_estimate":8.0,"estimate":9.0},...]}
//   {"type":"edge","algorithm":"OIHSA","edge":4,"src_task":1,
//    "dst_task":3,"local":false,"ship_time":5.0,"arrival":9.0,
//    "hops":[{"link":0,"start":5.0,"finish":9.0}]}
//   {"type":"insertion","edge":4,"link":0,"outcome":"deferral",
//    "shifts":2,"slack_consumed":1.5,"start":3.0,"finish":5.0}
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace edgesched::obs {

/// One processor considered by the §4.1 selection loop.
struct ProcessorCandidate {
  std::uint32_t processor = 0;
  double ready_estimate = 0.0;  ///< estimated data-ready moment on it
  double estimate = 0.0;        ///< estimated task finish on it
};

/// Outcome of one task's processor selection.
struct TaskDecision {
  std::string algorithm;
  std::uint32_t task = 0;
  std::uint32_t chosen_processor = 0;
  double chosen_estimate = 0.0;
  std::vector<ProcessorCandidate> candidates;  ///< in evaluation order
  std::uint64_t run = 0;  ///< correlating run ID (filled by record())
};

/// One link occupation of a routed edge.
struct EdgeHop {
  std::uint32_t link = 0;
  double start = 0.0;
  double finish = 0.0;
};

/// Outcome of booking one DAG edge (§4.2 order, §4.3 route).
struct EdgeDecision {
  std::string algorithm;
  std::uint32_t edge = 0;
  std::uint32_t src_task = 0;
  std::uint32_t dst_task = 0;
  bool local = false;      ///< same processor or zero cost: no network
  double ship_time = 0.0;  ///< when the data left the source
  double arrival = 0.0;    ///< when the destination has the data
  std::vector<EdgeHop> hops;  ///< per-link tentative finish times; empty
                              ///< when local
  std::uint64_t run = 0;  ///< correlating run ID (filled by record())
};

/// One runtime recovery choice of the discrete-event executor (src/exec):
/// how a fault was answered — a retry of the killed work, a reschedule of
/// the remaining subgraph onto the surviving topology, or an abort.
/// JSONL: {"type":"recovery","policy":"reschedule","action":"reschedule",
///   "time":12.5,"fault_kind":"processor","fault_target":2,
///   "permanent":true,"algorithm":"oihsa","tasks_remaining":7,
///   "replan_makespan":31.0}
struct RecoveryDecision {
  std::string policy;      ///< configured RecoveryPolicy name
  std::string action;      ///< "retry" | "reschedule" | "abort"
  std::string fault_kind;  ///< "processor" | "link"
  std::uint32_t fault_target = 0;
  bool permanent = false;
  double time = 0.0;            ///< virtual time of the decision
  std::string algorithm;        ///< replanning algorithm ("" for retries)
  std::uint32_t tasks_remaining = 0;
  double replan_makespan = 0.0; ///< sub-schedule makespan (0 for retries)
  std::uint64_t run = 0;  ///< correlating run ID (filled by record())
};

/// Outcome of one optimal-insertion commit on one link (§4.4).
struct InsertionDecision {
  std::uint32_t edge = 0;
  std::uint32_t link = 0;
  bool deferral = false;       ///< false: plain first-fit position
  std::uint32_t shifts = 0;    ///< booked slots displaced
  double slack_consumed = 0.0; ///< total time the displaced slots moved
  double start = 0.0;
  double finish = 0.0;
  std::uint64_t run = 0;  ///< correlating run ID (filled by record())
};

class DecisionLog {
 public:
  /// Every record is serialised to `sink` as one JSON line immediately.
  explicit DecisionLog(std::ostream& sink) : sink_(sink) {}

  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  void record(TaskDecision decision);
  void record(EdgeDecision decision);
  void record(InsertionDecision decision);
  void record(RecoveryDecision decision);

 private:
  void write_line(const std::string& line);

  std::mutex mutex_;  ///< serialises lines into sink_
  std::ostream& sink_;
};

/// Installs `log` as the process-global active decision log for this
/// scope; restores the previous log (usually nullptr) on destruction.
class ScopedDecisionLog {
 public:
  explicit ScopedDecisionLog(DecisionLog& log);
  ~ScopedDecisionLog();

  ScopedDecisionLog(const ScopedDecisionLog&) = delete;
  ScopedDecisionLog& operator=(const ScopedDecisionLog&) = delete;

 private:
  DecisionLog* previous_;
};

namespace detail {
extern std::atomic<DecisionLog*> g_active_decision_log;
}  // namespace detail

/// Hot-path check: the currently installed log, or nullptr.
[[nodiscard]] inline DecisionLog* active_decision_log() noexcept {
  return detail::g_active_decision_log.load(std::memory_order_acquire);
}

}  // namespace edgesched::obs
