#include "obs/decision_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "exec/executor.hpp"
#include "net/builders.hpp"
#include "obs/json.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"

#include "fault_script.hpp"

namespace edgesched::obs {
namespace {

TaskDecision sample_task() {
  TaskDecision decision;
  decision.algorithm = "OIHSA";
  decision.task = 3;
  decision.chosen_processor = 1;
  decision.chosen_estimate = 9.0;
  decision.candidates.push_back(ProcessorCandidate{0, 8.0, 9.5});
  decision.candidates.push_back(ProcessorCandidate{1, 8.0, 9.0});
  return decision;
}

EdgeDecision sample_edge() {
  EdgeDecision decision;
  decision.algorithm = "OIHSA";
  decision.edge = 4;
  decision.src_task = 1;
  decision.dst_task = 3;
  decision.local = false;
  decision.ship_time = 5.0;
  decision.arrival = 9.0;
  decision.hops.push_back(EdgeHop{0, 5.0, 9.0});
  return decision;
}

InsertionDecision sample_insertion() {
  InsertionDecision decision;
  decision.edge = 4;
  decision.link = 0;
  decision.deferral = true;
  decision.shifts = 2;
  decision.slack_consumed = 1.5;
  decision.start = 3.0;
  decision.finish = 5.0;
  return decision;
}

std::vector<JsonValue> parse_lines(const std::string& jsonl) {
  std::vector<JsonValue> docs;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      docs.push_back(JsonValue::parse(line));
    }
  }
  return docs;
}

TEST(DecisionLog, StoresAndSnapshotsAllThreeKinds) {
  std::ostringstream out;
  DecisionLog log(out);
  log.record(sample_task());
  log.record(sample_edge());
  log.record(sample_insertion());

  const std::vector<JsonValue> docs = parse_lines(out.str());
  ASSERT_EQ(docs.size(), 3u);
  ASSERT_EQ(docs[0].at("type").as_string(), "task");
  ASSERT_EQ(docs[1].at("type").as_string(), "edge");
  ASSERT_EQ(docs[2].at("type").as_string(), "insertion");

  const JsonValue& task = docs[0];
  EXPECT_EQ(task.at("algorithm").as_string(), "OIHSA");
  EXPECT_EQ(task.at("chosen_processor").as_number(), 1.0);
  ASSERT_EQ(task.at("candidates").size(), 2u);
  EXPECT_DOUBLE_EQ(task.at("candidates").at(0).at("estimate").as_number(),
                   9.5);

  const JsonValue& edge = docs[1];
  EXPECT_FALSE(edge.at("local").as_bool());
  ASSERT_EQ(edge.at("hops").size(), 1u);
  EXPECT_DOUBLE_EQ(edge.at("hops").at(0).at("finish").as_number(), 9.0);

  const JsonValue& insertion = docs[2];
  EXPECT_EQ(insertion.at("outcome").as_string(), "deferral");
  EXPECT_DOUBLE_EQ(insertion.at("slack_consumed").as_number(), 1.5);
}

TEST(DecisionLog, JsonlSchemaCarriesEveryField) {
  std::ostringstream out;
  DecisionLog log(out);
  log.record(sample_task());
  log.record(sample_edge());
  log.record(sample_insertion());

  const std::vector<JsonValue> docs = parse_lines(out.str());
  ASSERT_EQ(docs.size(), 3u);

  const JsonValue& task = docs[0];
  EXPECT_EQ(task.at("type").as_string(), "task");
  EXPECT_EQ(task.at("algorithm").as_string(), "OIHSA");
  EXPECT_EQ(task.at("task").as_number(), 3.0);
  EXPECT_EQ(task.at("chosen_processor").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(task.at("chosen_estimate").as_number(), 9.0);
  ASSERT_EQ(task.at("candidates").size(), 2u);
  const JsonValue& candidate = task.at("candidates").at(1);
  EXPECT_EQ(candidate.at("processor").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(candidate.at("ready_estimate").as_number(), 8.0);
  EXPECT_DOUBLE_EQ(candidate.at("estimate").as_number(), 9.0);

  const JsonValue& edge = docs[1];
  EXPECT_EQ(edge.at("type").as_string(), "edge");
  EXPECT_EQ(edge.at("edge").as_number(), 4.0);
  EXPECT_EQ(edge.at("src_task").as_number(), 1.0);
  EXPECT_EQ(edge.at("dst_task").as_number(), 3.0);
  EXPECT_FALSE(edge.at("local").as_bool());
  EXPECT_DOUBLE_EQ(edge.at("ship_time").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(edge.at("arrival").as_number(), 9.0);
  ASSERT_EQ(edge.at("hops").size(), 1u);
  EXPECT_EQ(edge.at("hops").at(0).at("link").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(edge.at("hops").at(0).at("start").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(edge.at("hops").at(0).at("finish").as_number(), 9.0);

  const JsonValue& insertion = docs[2];
  EXPECT_EQ(insertion.at("type").as_string(), "insertion");
  EXPECT_EQ(insertion.at("outcome").as_string(), "deferral");
  EXPECT_EQ(insertion.at("shifts").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(insertion.at("slack_consumed").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(insertion.at("start").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(insertion.at("finish").as_number(), 5.0);
}

TEST(DecisionLog, FirstFitInsertionSaysFirstFit) {
  std::ostringstream out;
  DecisionLog log(out);
  InsertionDecision decision = sample_insertion();
  decision.deferral = false;
  decision.shifts = 0;
  decision.slack_consumed = 0.0;
  log.record(decision);

  const std::vector<JsonValue> docs = parse_lines(out.str());
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].at("outcome").as_string(), "first_fit");
  EXPECT_EQ(docs[0].at("shifts").as_number(), 0.0);
}

TEST(DecisionLog, PreservesRecordingOrderAcrossKinds) {
  std::ostringstream out;
  DecisionLog log(out);
  log.record(sample_insertion());  // insertion lands before its edge,
  log.record(sample_edge());       // exactly as the schedulers emit them
  log.record(sample_task());

  const std::vector<JsonValue> docs = parse_lines(out.str());
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].at("type").as_string(), "insertion");
  EXPECT_EQ(docs[1].at("type").as_string(), "edge");
  EXPECT_EQ(docs[2].at("type").as_string(), "task");
}

TEST(DecisionLog, StreamingSinkWritesInsteadOfStoring) {
  std::ostringstream sink;
  DecisionLog log(sink);
  log.record(sample_task());

  // Streamed immediately: the line is in the sink before the next record.
  EXPECT_EQ(parse_lines(sink.str()).size(), 1u);
  log.record(sample_edge());
  const std::vector<JsonValue> docs = parse_lines(sink.str());
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].at("type").as_string(), "task");
  EXPECT_EQ(docs[1].at("type").as_string(), "edge");
}

TEST(DecisionLog, RecoveryRecordsRoundTripThroughJsonl) {
  RecoveryDecision decision;
  decision.policy = "reschedule";
  decision.action = "reschedule";
  decision.fault_kind = "processor";
  decision.fault_target = 2;
  decision.permanent = true;
  decision.time = 41.5;
  decision.algorithm = "OIHSA";
  decision.tasks_remaining = 7;
  decision.replan_makespan = 88.25;

  std::ostringstream os;
  DecisionLog log(os);
  log.record(decision);

  const std::vector<JsonValue> docs = parse_lines(os.str());
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].at("type").as_string(), "recovery");
  EXPECT_EQ(docs[0].at("action").as_string(), "reschedule");
  EXPECT_EQ(docs[0].at("policy").as_string(), "reschedule");
  EXPECT_EQ(docs[0].at("fault_kind").as_string(), "processor");
  EXPECT_EQ(docs[0].at("fault_target").as_number(), 2.0);
  EXPECT_TRUE(docs[0].at("permanent").as_bool());
  EXPECT_EQ(docs[0].at("time").as_number(), 41.5);
  EXPECT_EQ(docs[0].at("algorithm").as_string(), "OIHSA");
  EXPECT_EQ(docs[0].at("tasks_remaining").as_number(), 7.0);
  EXPECT_EQ(docs[0].at("replan_makespan").as_number(), 88.25);
}

TEST(DecisionLog, ExecutorLogsRecoveryDecisionsWhenInstalled) {
  // End-to-end: a rescheduling execution records its replan decision in
  // the active log.
  Rng rng(9);
  dag::LayeredDagParams params;
  params.num_tasks = 14;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(graph, topo);
  exec::ExecutionOptions options;
  options.policy = exec::RecoveryPolicy::kReschedule;
  options.faults = exec::FaultPlan::scripted({test::processor_fault(
      schedule.makespan() * 0.4, topo.processors().front(), true)});

  std::ostringstream out;
  DecisionLog log(out);
  {
    ScopedDecisionLog scoped(log);
    const exec::ExecutionReport report =
        exec::execute(graph, topo, schedule, options);
    ASSERT_TRUE(report.completed) << report.failure;
    ASSERT_GE(report.reschedules, 1u);
  }
  std::vector<JsonValue> recoveries;
  for (JsonValue& doc : parse_lines(out.str())) {
    if (doc.at("type").as_string() == "recovery") {
      recoveries.push_back(std::move(doc));
    }
  }
  ASSERT_GE(recoveries.size(), 1u);
  const JsonValue& logged = recoveries.front();
  EXPECT_EQ(logged.at("policy").as_string(), "reschedule");
  EXPECT_EQ(logged.at("action").as_string(), "reschedule");
  EXPECT_EQ(logged.at("fault_kind").as_string(), "processor");
  EXPECT_TRUE(logged.at("permanent").as_bool());
  EXPECT_GT(logged.at("replan_makespan").as_number(), 0.0);
}

TEST(DecisionLog, ScopedInstallNestsAndRestores) {
  ASSERT_EQ(active_decision_log(), nullptr);
  std::ostringstream sink;
  DecisionLog outer(sink);
  {
    ScopedDecisionLog scoped_outer(outer);
    EXPECT_EQ(active_decision_log(), &outer);
    {
      DecisionLog inner(sink);
      ScopedDecisionLog scoped_inner(inner);
      EXPECT_EQ(active_decision_log(), &inner);
    }
    EXPECT_EQ(active_decision_log(), &outer);
  }
  EXPECT_EQ(active_decision_log(), nullptr);
}

}  // namespace
}  // namespace edgesched::obs
