// Online recovery: permanent faults under the reschedule policy must
// replan the unfinished subgraph onto the surviving topology and finish
// every task.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "exec/executor.hpp"
#include "exec/recovery.hpp"
#include "net/builders.hpp"
#include "sched/registry.hpp"
#include "util/rng.hpp"

#include "fault_script.hpp"

namespace edgesched::exec {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

Instance make_instance(std::uint64_t seed, std::size_t tasks = 20,
                       std::size_t procs = 4) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = tasks;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 1.5);
  net::RandomWanParams wan;
  wan.num_processors = procs;
  net::Topology topo = net::random_wan(wan, rng);
  return Instance{std::move(graph), std::move(topo)};
}

void expect_all_tasks_done(const ExecutionReport& report,
                           const dag::TaskGraph& graph) {
  ASSERT_EQ(report.tasks.size(), graph.num_tasks());
  for (const TaskRecord& record : report.tasks) {
    EXPECT_GE(record.attempts, 1u) << "task " << record.task;
    EXPECT_GT(record.finish, 0.0) << "task " << record.task;
  }
}

TEST(Recovery, PermanentProcessorFaultReschedulesRemaining) {
  // The acceptance scenario: a scripted permanent processor failure
  // mid-run, reschedule policy with validated recovery plans; every task
  // must still complete, none on the dead processor after the fault.
  const Instance inst = make_instance(31);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  const net::NodeId dead = inst.topo.processors().front();
  const double fault_time = schedule.makespan() * 0.3;
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.faults = FaultPlan::scripted({test::processor_fault(
      fault_time, dead, /*permanent=*/true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  expect_all_tasks_done(report, inst.graph);
  EXPECT_EQ(report.faults_survived, 1u);
  EXPECT_GE(report.reschedules, 1u);
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_EQ(report.recoveries.front().action, "reschedule");
  EXPECT_EQ(report.recoveries.front().algorithm, schedule.algorithm());
  EXPECT_EQ(report.recoveries.front().processors_surviving,
            inst.topo.num_processors() - 1);
  // Nothing may finish on the dead processor after it died.
  for (const TaskRecord& record : report.tasks) {
    if (record.processor == dead.value()) {
      EXPECT_LE(record.finish, fault_time) << "task " << record.task;
    }
  }
}

TEST(Recovery, RescheduleWorksForEveryAlgorithm) {
  const Instance inst = make_instance(32, 16, 4);
  for (const char* name : {"ba", "oihsa", "bbsa", "packet-ba", "classic"}) {
    const sched::Schedule schedule =
        sched::make_scheduler(name)->schedule(inst.graph, inst.topo);
    ExecutionOptions options;
    options.policy = RecoveryPolicy::kReschedule;
    options.faults = FaultPlan::scripted({test::processor_fault(
        schedule.makespan() * 0.4, inst.topo.processors().back(), true)});
    const ExecutionReport report =
        execute(inst.graph, inst.topo, schedule, options);
    ASSERT_TRUE(report.completed) << name << ": " << report.failure;
    expect_all_tasks_done(report, inst.graph);
  }
}

TEST(Recovery, CrossAlgorithmReplanning) {
  // Execute a BBSA plan but replan failures with OIHSA.
  const Instance inst = make_instance(33);
  const sched::Schedule schedule =
      sched::make_scheduler("bbsa")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.recovery_algorithm = "oihsa";
  options.faults = FaultPlan::scripted({test::processor_fault(
      schedule.makespan() * 0.5, inst.topo.processors().front(), true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_EQ(report.recoveries.front().algorithm, "OIHSA");
}

TEST(Recovery, SurvivesTwoSequentialProcessorLosses) {
  const Instance inst = make_instance(34, 24, 5);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.faults = FaultPlan::scripted(
      {test::processor_fault(schedule.makespan() * 0.2,
                             inst.topo.processors()[0], true),
       test::processor_fault(schedule.makespan() * 2.0,
                             inst.topo.processors()[1], true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  expect_all_tasks_done(report, inst.graph);
  EXPECT_EQ(report.faults_survived, report.faults_injected);
}

TEST(Recovery, RescheduleDelayPushesTheReplanOut) {
  const Instance inst = make_instance(35);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.faults = FaultPlan::scripted({test::processor_fault(
      schedule.makespan() * 0.3, inst.topo.processors().front(), true)});
  const ExecutionReport plain =
      execute(inst.graph, inst.topo, schedule, options);
  options.reschedule_delay = 25.0;
  const ExecutionReport delayed =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(plain.completed) << plain.failure;
  ASSERT_TRUE(delayed.completed) << delayed.failure;
  EXPECT_GT(delayed.achieved_makespan, plain.achieved_makespan);
}

TEST(Recovery, LastProcessorLossIsUnrecoverable) {
  const dag::TaskGraph graph = dag::chain(4, 5.0, 1.0);
  Rng rng(6);
  const net::Topology topo = net::switched_star(1, net::SpeedConfig{}, rng);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(graph, topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.faults = FaultPlan::scripted({test::processor_fault(
      1.0, topo.processors().front(), true)});
  const ExecutionReport report = execute(graph, topo, schedule, options);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.failure.empty());
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_EQ(report.recoveries.back().action, "abort");
}

TEST(Recovery, RescheduleLimitAborts) {
  const Instance inst = make_instance(36, 18, 4);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kReschedule;
  options.max_reschedules = 0;
  options.faults = FaultPlan::scripted({test::processor_fault(
      schedule.makespan() * 0.3, inst.topo.processors().front(), true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.failure.find("reschedule"), std::string::npos)
      << report.failure;
}

TEST(Recovery, SurvivingTopologyDropsDeadResources) {
  Rng rng(7);
  const net::Topology topo = net::switched_star(4, net::SpeedConfig{}, rng);
  std::vector<bool> dead_proc(topo.num_nodes(), false);
  dead_proc[topo.processors()[1].index()] = true;
  const SurvivingTopology surv = surviving_topology(
      topo, dead_proc, std::vector<bool>(topo.num_links(), false));
  EXPECT_EQ(surv.topology.num_processors(), 3u);
  // The dead processor has no image; survivors map both ways.
  EXPECT_FALSE(surv.to_new_node[topo.processors()[1].index()].valid());
  for (const net::NodeId p : surv.topology.processors()) {
    const net::NodeId old = surv.to_old_node[p.index()];
    EXPECT_TRUE(old.valid());
    EXPECT_EQ(surv.to_new_node[old.index()], p);
  }
  // Star topology: each lost cable removes both directions.
  EXPECT_EQ(surv.topology.num_links(), topo.num_links() - 2);
}

TEST(Recovery, RemainingWorkRerunsLostFinishedProducers) {
  // a -> b -> c; b finished but its output was lost and c still needs it:
  // b must re-run, a survives as a stub.
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(1.0);
  const dag::TaskId b = builder.add_task(1.0);
  const dag::TaskId c = builder.add_task(1.0);
  (void)builder.add_edge(a, b, 1.0);
  (void)builder.add_edge(b, c, 1.0);
  const dag::TaskGraph graph = builder.build();
  std::vector<bool> finished = {true, true, false};
  std::vector<bool> lost = {false, true, false};
  const RemainingWork work = remaining_work(graph, finished, lost);
  EXPECT_EQ(work.rerun, (std::vector<dag::TaskId>{b, c}));
  EXPECT_EQ(work.stubs, (std::vector<dag::TaskId>{a}));
}

}  // namespace
}  // namespace edgesched::exec
