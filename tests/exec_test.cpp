// Discrete-event executor: bit-exact nominal replay, jitter determinism,
// fault injection and the retry / fail-stop recovery policies.
#include "exec/executor.hpp"

#include <optional>
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"
#include "util/rng.hpp"

#include "fault_script.hpp"

namespace edgesched::exec {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

Instance make_instance(std::uint64_t seed, std::size_t tasks = 18,
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

TEST(Executor, NominalTimetableReplayIsBitExact) {
  // The tentpole guarantee: with zero perturbation and no faults, every
  // algorithm's schedule replays to *exactly* the predicted doubles —
  // all five communication models included.
  const Instance inst = make_instance(11);
  for (const auto& entry : sched::algorithm_registry()) {
    const sched::Schedule schedule =
        entry.make()->schedule(inst.graph, inst.topo);
    const ExecutionReport report =
        execute(inst.graph, inst.topo, schedule);
    ASSERT_TRUE(report.completed) << entry.key << ": " << report.failure;
    EXPECT_EQ(report.achieved_makespan, schedule.makespan()) << entry.key;
    EXPECT_EQ(report.predicted_makespan, schedule.makespan()) << entry.key;
    EXPECT_EQ(report.total_tardiness, 0.0) << entry.key;
    ASSERT_EQ(report.tasks.size(), inst.graph.num_tasks());
    for (const TaskRecord& record : report.tasks) {
      const auto& placed = schedule.task(dag::TaskId(record.task));
      EXPECT_EQ(record.start, placed.start) << entry.key;
      EXPECT_EQ(record.finish, placed.finish) << entry.key;
      EXPECT_EQ(record.processor, placed.processor.value()) << entry.key;
      EXPECT_EQ(record.attempts, 1u) << entry.key;
    }
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.faults_injected, 0u);
    EXPECT_EQ(report.work_lost, 0.0);
  }
}

TEST(Executor, EventDrivenNeverFinishesLater) {
  // Work-conserving dispatch keeps the planned per-resource order but
  // drops intentional gaps, so no operation starts after its anchor.
  const Instance inst = make_instance(12);
  ExecutionOptions options;
  options.dispatch = DispatchMode::kEventDriven;
  for (const char* name : {"ba", "oihsa", "bbsa"}) {
    const sched::Schedule schedule =
        sched::make_scheduler(name)->schedule(inst.graph, inst.topo);
    const ExecutionReport report =
        execute(inst.graph, inst.topo, schedule, options);
    ASSERT_TRUE(report.completed) << report.failure;
    EXPECT_LE(report.achieved_makespan, schedule.makespan() + 1e-12)
        << name;
    for (const TaskRecord& record : report.tasks) {
      EXPECT_LE(record.start, record.predicted_start + 1e-12) << name;
    }
  }
}

TEST(Executor, JitterIsDeterministicPerSeed) {
  const Instance inst = make_instance(13);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.model.duration_spread = 0.25;
  options.model.bandwidth_spread = 0.2;
  options.model.seed = 99;
  const ExecutionReport a = execute(inst.graph, inst.topo, schedule, options);
  const ExecutionReport b = execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.achieved_makespan, b.achieved_makespan);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  // Jitter must actually move the clock (timetable mode only delays).
  EXPECT_GT(a.achieved_makespan, schedule.makespan());

  options.model.seed = 100;
  const ExecutionReport c = execute(inst.graph, inst.topo, schedule, options);
  EXPECT_NE(a.achieved_makespan, c.achieved_makespan);
}

TEST(Executor, StragglersStretchTheTail) {
  const Instance inst = make_instance(14);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.model.straggler_probability = 0.5;
  options.model.straggler_factor = 6.0;
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.achieved_makespan, schedule.makespan());
  EXPECT_GT(report.max_tardiness, 0.0);
}

TEST(Executor, TransientProcessorFaultRetriesInPlace) {
  const Instance inst = make_instance(15);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  // Kill the processor running the task that ends last, mid-execution.
  const dag::TaskId victim = [&] {
    dag::TaskId best(0u);
    for (dag::TaskId t : inst.graph.all_tasks()) {
      if (schedule.task(t).finish > schedule.task(best).finish) best = t;
    }
    return best;
  }();
  const auto& placed = schedule.task(victim);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kRetry;
  options.faults = FaultPlan::scripted({test::processor_fault(
      0.5 * (placed.start + placed.finish), placed.processor,
      /*permanent=*/false, /*repair=*/1.0)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.faults_survived, 1u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_GT(report.work_lost, 0.0);
  EXPECT_GT(report.achieved_makespan, schedule.makespan());
  EXPECT_GE(report.tasks[victim.index()].attempts, 2u);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].kind, "processor");
  EXPECT_GE(report.faults[0].killed, 1u);
}

TEST(Executor, RetryBackoffDelaysTheRerun) {
  const dag::TaskGraph graph = dag::chain(3, 4.0, 1.0);
  Rng rng(4);
  const net::Topology topo = net::switched_star(2, net::SpeedConfig{}, rng);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(graph, topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kRetry;
  options.faults = FaultPlan::scripted({test::processor_fault(
      2.0, schedule.task(dag::TaskId(0u)).processor, false, 1.0)});
  const ExecutionReport plain = execute(graph, topo, schedule, options);
  options.retry_backoff = 5.0;
  const ExecutionReport delayed = execute(graph, topo, schedule, options);
  ASSERT_TRUE(plain.completed) << plain.failure;
  ASSERT_TRUE(delayed.completed) << delayed.failure;
  EXPECT_GE(delayed.achieved_makespan, plain.achieved_makespan + 4.9);
}

TEST(Executor, RetryExhaustionAborts) {
  const dag::TaskGraph graph = dag::chain(2, 10.0, 1.0);
  Rng rng(5);
  const net::Topology topo = net::switched_star(1, net::SpeedConfig{}, rng);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(graph, topo);
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kRetry;
  options.max_retries = 2;
  // The task re-runs right after each heal; repeated kills exhaust it.
  std::vector<FaultEvent> kills;
  for (double t : {1.0, 3.0, 5.0, 7.0}) {
    kills.push_back(
        test::processor_fault(t, topo.processors().front(), false, 0.5));
  }
  options.faults = FaultPlan::scripted(std::move(kills));
  const ExecutionReport report = execute(graph, topo, schedule, options);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.failure.find("retr"), std::string::npos)
      << report.failure;
  ASSERT_FALSE(report.recoveries.empty());
  EXPECT_EQ(report.recoveries.back().action, "abort");
}

TEST(Executor, FailStopAbortsOnPermanentFault) {
  const Instance inst = make_instance(16);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;  // kFailStop is the default policy
  options.faults = FaultPlan::scripted({test::processor_fault(
      schedule.makespan() * 0.25, inst.topo.processors().front(),
      /*permanent=*/true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.failure.empty());
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.faults_survived, 0u);
}

TEST(Executor, TransientLinkFaultKillsAndRetriesTheTransfer) {
  // Find a schedule with a cross-processor exclusive transfer and sever
  // its first hop mid-slot; retry policy must re-send after the heal.
  const Instance inst = make_instance(17, 20, 3);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);
  std::optional<sched::Communication> cross;
  for (std::size_t e = 0; e < schedule.num_edges(); ++e) {
    const sched::Communication comm =
        schedule.communication(dag::EdgeId(e));
    if (comm.kind == sched::Communication::Kind::kExclusive &&
        !comm.occupations.empty()) {
      cross = comm;
      break;
    }
  }
  ASSERT_TRUE(cross.has_value()) << "instance produced no remote transfer";
  const auto& slot = cross->occupations.front();
  ExecutionOptions options;
  options.policy = RecoveryPolicy::kRetry;
  options.faults = FaultPlan::scripted({test::link_fault(
      0.5 * (slot.start + slot.finish), slot.link, /*permanent=*/false,
      /*repair=*/0.5)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_EQ(report.faults_survived, 1u);
  EXPECT_GE(report.retries, 1u);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].kind, "link");
  EXPECT_GE(report.faults[0].killed, 1u);
}

TEST(Executor, FaultAfterCompletionIsHarmless) {
  const Instance inst = make_instance(18);
  const sched::Schedule schedule =
      sched::make_scheduler("classic")->schedule(inst.graph, inst.topo);
  ExecutionOptions options;
  options.faults = FaultPlan::scripted({test::processor_fault(
      schedule.makespan() + 100.0, inst.topo.processors().front(), true)});
  const ExecutionReport report =
      execute(inst.graph, inst.topo, schedule, options);
  ASSERT_TRUE(report.completed) << report.failure;
  EXPECT_EQ(report.achieved_makespan, schedule.makespan());
}

bool same_events(const FaultPlan& a, const FaultPlan& b) {
  return std::ranges::equal(
      a.events(), b.events(), [](const FaultEvent& x, const FaultEvent& y) {
        return std::tie(x.time, x.kind, x.target, x.permanent, x.repair) ==
               std::tie(y.time, y.kind, y.target, y.permanent, y.repair);
      });
}

TEST(Executor, SampledFaultPlanIsDeterministic) {
  const Instance inst = make_instance(19);
  HazardConfig config;
  config.processor_rate = 0.05;
  config.link_rate = 0.02;
  config.horizon = 50.0;
  config.permanent_fraction = 0.3;
  config.seed = 7;
  const FaultPlan a = FaultPlan::sampled(inst.topo, config);
  const FaultPlan b = FaultPlan::sampled(inst.topo, config);
  EXPECT_TRUE(same_events(a, b));
  a.validate(inst.topo);
  config.seed = 8;
  const FaultPlan c = FaultPlan::sampled(inst.topo, config);
  EXPECT_FALSE(same_events(a, c));
}

TEST(Executor, RejectsMalformedOptions) {
  const Instance inst = make_instance(20, 6, 2);
  const sched::Schedule schedule =
      sched::make_scheduler("ba")->schedule(inst.graph, inst.topo);

  ExecutionOptions bad_model;
  bad_model.model.duration_spread = 1.5;
  EXPECT_THROW(
      (void)execute(inst.graph, inst.topo, schedule, bad_model),
      std::invalid_argument);

  // Non-finite model knobs: NaN fails every range comparison, +inf
  // stretches a straggler forever.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& set : std::vector<std::function<void(RuntimeModel&)>>{
           [&](RuntimeModel& m) { m.duration_spread = nan; },
           [&](RuntimeModel& m) { m.bandwidth_spread = nan; },
           [&](RuntimeModel& m) { m.straggler_probability = nan; },
           [&](RuntimeModel& m) { m.straggler_factor = nan; },
           [&](RuntimeModel& m) { m.straggler_factor = inf; }}) {
    ExecutionOptions options;
    set(options.model);
    EXPECT_THROW(
        (void)execute(inst.graph, inst.topo, schedule, options),
        std::invalid_argument);
  }

  // Non-finite fault times and transient repairs.
  const net::NodeId p0 = inst.topo.processors()[0];
  EXPECT_THROW(
      (void)FaultPlan::scripted({test::processor_fault(nan, p0, true)}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)FaultPlan::scripted({test::processor_fault(inf, p0, true)}),
      std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::scripted(
                   {test::processor_fault(1.0, p0, false, nan)}),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::scripted(
                   {test::processor_fault(1.0, p0, false, inf)}),
               std::invalid_argument);
  FaultEvent nan_time;
  nan_time.time = nan;
  EXPECT_THROW((void)FaultPlan::scripted({nan_time}), std::invalid_argument);

  // Hazard configs that would never terminate or pass a NaN through.
  for (const auto& set : std::vector<std::function<void(HazardConfig&)>>{
           [&](HazardConfig& c) { c.horizon = nan; },
           [&](HazardConfig& c) { c.horizon = inf; },
           [&](HazardConfig& c) { c.processor_rate = nan; },
           [&](HazardConfig& c) { c.processor_rate = inf; },
           [&](HazardConfig& c) { c.link_rate = nan; },
           [&](HazardConfig& c) { c.permanent_fraction = nan; },
           [&](HazardConfig& c) { c.mean_repair = nan; },
           [&](HazardConfig& c) { c.mean_repair = inf; }}) {
    HazardConfig config;
    config.processor_rate = 0.05;
    config.horizon = 50.0;
    set(config);
    EXPECT_THROW((void)FaultPlan::sampled(inst.topo, config),
                 std::invalid_argument);
  }

  ExecutionOptions bad_target;
  bad_target.faults = FaultPlan::scripted({test::processor_fault(
      1.0, net::NodeId(10'000u), true)});
  EXPECT_THROW(
      (void)execute(inst.graph, inst.topo, schedule, bad_target),
      std::invalid_argument);

  // Retry backoff and replanning delay: NaN would queue events at time
  // NaN, a negative delay would start a replan before its fault.
  for (const double bad : {nan, inf, -inf, -1.0}) {
    ExecutionOptions backoff;
    backoff.policy = RecoveryPolicy::kRetry;
    backoff.retry_backoff = bad;
    EXPECT_THROW(
        (void)execute(inst.graph, inst.topo, schedule, backoff),
        std::invalid_argument);
    ExecutionOptions delay;
    delay.policy = RecoveryPolicy::kReschedule;
    delay.reschedule_delay = bad;
    EXPECT_THROW(
        (void)execute(inst.graph, inst.topo, schedule, delay),
        std::invalid_argument);
  }

  ExecutionOptions bad_algo;
  bad_algo.policy = RecoveryPolicy::kReschedule;
  bad_algo.recovery_algorithm = "no-such-algorithm";
  EXPECT_THROW(
      (void)execute(inst.graph, inst.topo, schedule, bad_algo),
      std::invalid_argument);

  // Shape mismatch: a schedule for a different graph.
  const Instance other = make_instance(21, 9, 2);
  EXPECT_THROW((void)execute(other.graph, other.topo, schedule),
               std::invalid_argument);
}

TEST(Executor, ParseHelpersRoundTrip) {
  EXPECT_EQ(parse_recovery_policy("fail-stop"), RecoveryPolicy::kFailStop);
  EXPECT_EQ(parse_recovery_policy("retry"), RecoveryPolicy::kRetry);
  EXPECT_EQ(parse_recovery_policy("reschedule"),
            RecoveryPolicy::kReschedule);
  EXPECT_EQ(to_string(RecoveryPolicy::kReschedule), "reschedule");
  EXPECT_THROW((void)parse_recovery_policy("bogus"), std::invalid_argument);

  EXPECT_EQ(parse_dispatch_mode("timetable"), DispatchMode::kTimetable);
  EXPECT_EQ(parse_dispatch_mode("event-driven"),
            DispatchMode::kEventDriven);
  EXPECT_EQ(to_string(DispatchMode::kEventDriven), "event-driven");
  EXPECT_THROW((void)parse_dispatch_mode("bogus"), std::invalid_argument);
}

TEST(Executor, ReportJsonHasExpectedShape) {
  const Instance inst = make_instance(22, 8, 2);
  const sched::Schedule schedule =
      sched::make_scheduler("oihsa")->schedule(inst.graph, inst.topo);
  const ExecutionReport report = execute(inst.graph, inst.topo, schedule);
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"type\":\"execution_report\""), std::string::npos);
  EXPECT_NE(json.find("\"achieved_makespan\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks\""), std::string::npos);
  EXPECT_FALSE(report.summary().empty());
}

}  // namespace
}  // namespace edgesched::exec
