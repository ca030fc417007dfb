// exec merged Perfetto trace: planned vs executed tracks, fault and
// recovery instants, run-ID correlation on every event.
#include "exec/trace_merge.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dag/generators.hpp"
#include "exec/executor.hpp"
#include "net/builders.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"

namespace edgesched::exec {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

std::string merged_trace(const dag::TaskGraph& graph,
                         const net::Topology& topology,
                         const sched::Schedule& schedule,
                         const ExecutionReport& report) {
  std::ostringstream os;
  write_merged_trace(os, graph, topology, schedule, report);
  return os.str();
}

Instance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = 16;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 4;
  net::Topology topo = net::random_wan(wan, rng);
  return Instance{std::move(graph), std::move(topo)};
}

TEST(TraceMerge, NominalRunHasPlannedAndExecutedTracks) {
  const Instance inst = make_instance(21);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule);
  ASSERT_TRUE(report.completed);

  const obs::JsonValue trace = obs::JsonValue::parse(
      merged_trace(inst.graph, inst.topo, schedule, report));
  const obs::JsonValue& events = trace.at("traceEvents");
  ASSERT_GT(events.size(), 0u);

  std::size_t planned = 0;
  std::size_t executed = 0;
  bool planned_name = false;
  bool executed_name = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    const std::string& ph = e.at("ph").as_string();
    const double pid = e.at("pid").as_number();
    if (ph == "X") {
      // Every span carries the report's run ID.
      EXPECT_DOUBLE_EQ(e.at("args").at("run_id").as_number(),
                       static_cast<double>(report.run_id));
      if (pid == 0.0) {
        ++planned;
      } else if (pid == 1.0) {
        ++executed;
      }
    } else if (ph == "M" && e.at("name").as_string() == "process_name") {
      const std::string& name = e.at("args").at("name").as_string();
      if (pid == 0.0) {
        planned_name =
            name.find("planned [" + schedule.algorithm() + "]") !=
            std::string::npos;
      } else if (pid == 1.0) {
        executed_name = name == "executed";
      }
    }
  }
  // One planned span per placed task, one executed span per run task.
  EXPECT_EQ(planned, inst.graph.num_tasks());
  EXPECT_EQ(executed, inst.graph.num_tasks());
  EXPECT_TRUE(planned_name);
  EXPECT_TRUE(executed_name);
}

TEST(TraceMerge, FaultyRunEmitsInstantsOnTheEventsProcess) {
  const Instance inst = make_instance(22);
  const sched::Schedule schedule =
      sched::make_scheduler("bbsa")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  HazardConfig hazard;
  hazard.processor_rate = 0.01;
  hazard.horizon = 4.0 * schedule.makespan();
  hazard.mean_repair = 0.05 * schedule.makespan();
  hazard.seed = 5;
  options.faults = FaultPlan::sampled(inst.topo, hazard);
  options.policy = RecoveryPolicy::kReschedule;
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_FALSE(report.faults.empty()) << "fault rate too low for the test";

  const obs::JsonValue trace = obs::JsonValue::parse(
      merged_trace(inst.graph, inst.topo, schedule, report));
  const obs::JsonValue& events = trace.at("traceEvents");
  std::size_t faults = 0;
  std::size_t recoveries = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    if (e.at("ph").as_string() != "i") {
      continue;
    }
    EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 2.0);
    EXPECT_DOUBLE_EQ(e.at("args").at("run_id").as_number(),
                     static_cast<double>(report.run_id));
    if (e.at("args").contains("kind")) {
      ++faults;
    } else if (e.at("args").contains("action")) {
      ++recoveries;
    }
  }
  EXPECT_EQ(faults, report.faults.size());
  EXPECT_EQ(recoveries, report.recoveries.size());
  EXPECT_GT(recoveries, 0u);
}

TEST(TraceMerge, RunIdMatchesTheCallersScope) {
  const Instance inst = make_instance(23);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);
  const std::uint64_t run = obs::mint_run_id();
  ExecutionReport report;
  {
    const obs::ScopedRunId scope(run);
    report = execute(inst.graph, inst.topo, schedule);
  }
  EXPECT_EQ(report.run_id, run);
  const std::string text =
      merged_trace(inst.graph, inst.topo, schedule, report);
  EXPECT_NE(text.find("\"run_id\":" + std::to_string(run)),
            std::string::npos);
}

TEST(TraceMerge, DeterministicForSameReport) {
  const Instance inst = make_instance(24);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule);
  EXPECT_EQ(merged_trace(inst.graph, inst.topo, schedule, report),
            merged_trace(inst.graph, inst.topo, schedule, report));
}

// Past 10^6 time units a 6-significant-digit spelling merges distinct
// timestamps; planned and executed spans must parse to the exact doubles
// of the schedule and of the report.
TEST(TraceMerge, TimesPastAMillionRoundTripExactly) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId root = builder.add_task(1234567.891, "root");
  const dag::TaskId left = builder.add_task(2345678.123, "left");
  const dag::TaskId right = builder.add_task(3456789.017, "right");
  (void)builder.add_edge(root, left, 1000000.3);
  (void)builder.add_edge(root, right, 1000000.7);
  const dag::TaskGraph graph = builder.build();
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(graph, topo);
  ExecutionOptions options;
  options.model.duration_spread = 0.2;
  options.model.seed = 3;
  const ExecutionReport report = execute(graph, topo, schedule, options);
  ASSERT_TRUE(report.completed);

  const obs::JsonValue trace = obs::JsonValue::parse(
      merged_trace(graph, topo, schedule, report));
  const obs::JsonValue& events = trace.at("traceEvents");
  std::size_t planned = 0;
  std::size_t executed = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    if (e.at("ph").as_string() != "X") {
      continue;
    }
    const auto task =
        static_cast<std::uint32_t>(e.at("args").at("task").as_number());
    const double ts = e.at("ts").as_number();
    const double dur = e.at("dur").as_number();
    if (e.at("pid").as_number() == 0.0) {
      const sched::TaskPlacement& p = schedule.task(dag::TaskId(task));
      EXPECT_EQ(ts, p.start) << task;
      EXPECT_EQ(dur, p.finish - p.start) << task;
      ++planned;
    } else {
      const TaskRecord& r = report.tasks[task];
      EXPECT_EQ(ts, r.start) << task;
      EXPECT_EQ(dur, r.finish - r.start) << task;
      EXPECT_EQ(e.at("args").at("tardiness").as_number(), r.tardiness());
      ++executed;
    }
  }
  EXPECT_EQ(planned, graph.num_tasks());
  EXPECT_EQ(executed, graph.num_tasks());
}

}  // namespace
}  // namespace edgesched::exec
