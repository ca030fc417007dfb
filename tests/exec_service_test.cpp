// SchedulerService::execute: async schedule replay on the pool with the
// content-addressed execution cache. The concurrency tests run under the
// TSan CI job.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "svc/scheduler_service.hpp"
#include "util/rng.hpp"

#include "fault_script.hpp"

namespace edgesched::svc {
namespace {

std::shared_ptr<const dag::TaskGraph> shared_graph(dag::TaskGraph graph) {
  return std::make_shared<const dag::TaskGraph>(std::move(graph));
}

std::shared_ptr<const net::Topology> shared_star(std::size_t processors) {
  Rng rng(11);
  return std::make_shared<const net::Topology>(
      net::switched_star(processors, net::SpeedConfig{}, rng));
}

TEST(ExecService, ExecuteMatchesDirectExecutorCall) {
  SchedulerService service({.threads = 2});
  const auto graph = shared_graph(dag::fork_join(6, 2.0, 4.0));
  const auto topo = shared_star(3);
  const auto schedule = service.submit(graph, topo, "oihsa").get();

  const auto report = service.execute(graph, topo, schedule).get();
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->completed) << report->failure;
  const exec::ExecutionReport direct =
      exec::execute(*graph, *topo, *schedule);
  EXPECT_EQ(report->achieved_makespan, direct.achieved_makespan);
  EXPECT_EQ(report->achieved_makespan, schedule->makespan());
}

TEST(ExecService, RepeatedExecuteHitsTheExecutionCache) {
  SchedulerService service({.threads = 2});
  const auto graph = shared_graph(dag::fork_join(6, 2.0, 4.0));
  const auto topo = shared_star(3);
  const auto schedule = service.submit(graph, topo, "ba").get();

  const auto first = service.execute(graph, topo, schedule).get();
  const auto second = service.execute(graph, topo, schedule).get();
  EXPECT_EQ(first, second);  // the very same cached report
  EXPECT_EQ(
      service.metrics().counter("svc_exec_cache_hits_total").value(), 1u);
  EXPECT_EQ(
      service.metrics().counter("svc_exec_cache_misses_total").value(), 1u);
  EXPECT_EQ(
      service.metrics().counter("svc_exec_requests_total").value(), 2u);
}

TEST(ExecService, DifferentOptionsCacheSeparately) {
  SchedulerService service({.threads = 1});
  const auto graph = shared_graph(dag::chain(5, 2.0, 3.0));
  const auto topo = shared_star(2);
  const auto schedule = service.submit(graph, topo, "ba").get();

  exec::ExecutionOptions noisy;
  noisy.model.duration_spread = 0.2;
  const auto nominal = service.execute(graph, topo, schedule).get();
  const auto jittered =
      service.execute(graph, topo, schedule, noisy).get();
  EXPECT_NE(nominal, jittered);
  EXPECT_EQ(
      service.metrics().counter("svc_exec_cache_misses_total").value(), 2u);
  EXPECT_GE(jittered->achieved_makespan, nominal->achieved_makespan);
}

TEST(ExecService, ManyConcurrentExecutes) {
  // Hammer one service from many futures (exercised under TSan): mixed
  // schedule and execute traffic against the same shared inputs.
  SchedulerService service({.threads = 4});
  const auto graph = shared_graph(dag::fork_join(8, 1.5, 3.0));
  const auto topo = shared_star(3);
  const auto schedule = service.submit(graph, topo, "oihsa").get();

  std::vector<std::future<SchedulerService::ExecutionPtr>> futures;
  for (int i = 0; i < 32; ++i) {
    exec::ExecutionOptions options;
    options.model.duration_spread = 0.1;
    options.model.seed = static_cast<std::uint64_t>(1 + i % 4);
    futures.push_back(service.execute(graph, topo, schedule, options));
  }
  for (auto& future : futures) {
    const auto report = future.get();
    ASSERT_NE(report, nullptr);
    EXPECT_TRUE(report->completed) << report->failure;
  }
  EXPECT_EQ(
      service.metrics().counter("svc_exec_requests_total").value(), 32u);
}

TEST(ExecService, ExecuteNowRunsFaultyPlans) {
  SchedulerService service({.threads = 2});
  Rng rng(3);
  const auto graph = shared_graph(dag::fork_join(6, 2.0, 4.0));
  const auto topo = std::make_shared<const net::Topology>(
      net::switched_star(3, net::SpeedConfig{}, rng));
  const auto schedule = service.submit(graph, topo, "oihsa").get();

  exec::ExecutionOptions options;
  options.policy = exec::RecoveryPolicy::kReschedule;
  options.faults = exec::FaultPlan::scripted({test::processor_fault(
      schedule->makespan() * 0.3, topo->processors().front(), true)});
  const auto report =
      service.execute(graph, topo, schedule, options).get();
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->completed) << report->failure;
  EXPECT_GE(report->reschedules, 1u);
}

TEST(ExecService, RejectsNullAndMalformedRequests) {
  SchedulerService service({.threads = 1});
  const auto graph = shared_graph(dag::chain(3, 1.0, 1.0));
  const auto topo = shared_star(2);
  const auto schedule = service.submit(graph, topo, "ba").get();

  EXPECT_THROW((void)service.execute(nullptr, topo, schedule),
               std::invalid_argument);
  EXPECT_THROW((void)service.execute(graph, nullptr, schedule),
               std::invalid_argument);
  EXPECT_THROW((void)service.execute(graph, topo, nullptr),
               std::invalid_argument);
  exec::ExecutionOptions bad;
  bad.model.duration_spread = -0.5;
  EXPECT_THROW((void)service.execute(graph, topo, schedule, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::svc
