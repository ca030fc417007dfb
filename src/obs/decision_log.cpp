#include "obs/decision_log.hpp"

#include <ostream>

#include "obs/json.hpp"
#include "obs/run_context.hpp"

namespace edgesched::obs {

namespace detail {
std::atomic<DecisionLog*> g_active_decision_log{nullptr};
}  // namespace detail

namespace {

/// Adds the correlating `"run"` member when the decision was recorded
/// inside a run scope; records from scope-less callers keep the PR 2
/// line shape unchanged.
JsonValue& set_run(JsonValue& value, std::uint64_t run) {
  if (run != 0) {
    value.set("run", JsonValue(run));
  }
  return value;
}

JsonValue to_json(const TaskDecision& d) {
  JsonValue candidates = JsonValue::array();
  for (const ProcessorCandidate& c : d.candidates) {
    candidates.push(JsonValue::object()
                        .set("processor", JsonValue(c.processor))
                        .set("ready_estimate", JsonValue(c.ready_estimate))
                        .set("estimate", JsonValue(c.estimate)));
  }
  JsonValue value = JsonValue::object()
                        .set("type", JsonValue("task"))
                        .set("algorithm", JsonValue(d.algorithm))
                        .set("task", JsonValue(d.task))
                        .set("chosen_processor", JsonValue(d.chosen_processor))
                        .set("chosen_estimate", JsonValue(d.chosen_estimate))
                        .set("candidates", std::move(candidates));
  return set_run(value, d.run);
}

JsonValue to_json(const EdgeDecision& d) {
  JsonValue hops = JsonValue::array();
  for (const EdgeHop& hop : d.hops) {
    hops.push(JsonValue::object()
                  .set("link", JsonValue(hop.link))
                  .set("start", JsonValue(hop.start))
                  .set("finish", JsonValue(hop.finish)));
  }
  JsonValue value = JsonValue::object()
                        .set("type", JsonValue("edge"))
                        .set("algorithm", JsonValue(d.algorithm))
                        .set("edge", JsonValue(d.edge))
                        .set("src_task", JsonValue(d.src_task))
                        .set("dst_task", JsonValue(d.dst_task))
                        .set("local", JsonValue(d.local))
                        .set("ship_time", JsonValue(d.ship_time))
                        .set("arrival", JsonValue(d.arrival))
                        .set("hops", std::move(hops));
  return set_run(value, d.run);
}

JsonValue to_json(const RecoveryDecision& d) {
  JsonValue value = JsonValue::object()
                        .set("type", JsonValue("recovery"))
                        .set("policy", JsonValue(d.policy))
                        .set("action", JsonValue(d.action))
                        .set("fault_kind", JsonValue(d.fault_kind))
                        .set("fault_target", JsonValue(d.fault_target))
                        .set("permanent", JsonValue(d.permanent))
                        .set("time", JsonValue(d.time))
                        .set("algorithm", JsonValue(d.algorithm))
                        .set("tasks_remaining", JsonValue(d.tasks_remaining))
                        .set("replan_makespan", JsonValue(d.replan_makespan));
  return set_run(value, d.run);
}

JsonValue to_json(const InsertionDecision& d) {
  JsonValue value = JsonValue::object()
                        .set("type", JsonValue("insertion"))
                        .set("edge", JsonValue(d.edge))
                        .set("link", JsonValue(d.link))
                        .set("outcome",
                             JsonValue(d.deferral ? "deferral" : "first_fit"))
                        .set("shifts", JsonValue(d.shifts))
                        .set("slack_consumed", JsonValue(d.slack_consumed))
                        .set("start", JsonValue(d.start))
                        .set("finish", JsonValue(d.finish));
  return set_run(value, d.run);
}

/// One JSONL line for `decision`, stamped with the thread's current run
/// ID when the caller left `run` at 0.
template <typename Decision>
std::string stamped_line(Decision& decision) {
  if (decision.run == 0) {
    decision.run = current_run_id();
  }
  return to_json(decision).dump();
}

}  // namespace

void DecisionLog::record(TaskDecision decision) {
  write_line(stamped_line(decision));
}

void DecisionLog::record(EdgeDecision decision) {
  write_line(stamped_line(decision));
}

void DecisionLog::record(InsertionDecision decision) {
  write_line(stamped_line(decision));
}

void DecisionLog::record(RecoveryDecision decision) {
  write_line(stamped_line(decision));
}

void DecisionLog::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_ << line << '\n';
}

ScopedDecisionLog::ScopedDecisionLog(DecisionLog& log)
    : previous_(detail::g_active_decision_log.exchange(
          &log, std::memory_order_acq_rel)) {}

ScopedDecisionLog::~ScopedDecisionLog() {
  detail::g_active_decision_log.store(previous_, std::memory_order_release);
}

}  // namespace edgesched::obs
