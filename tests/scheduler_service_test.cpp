#include "svc/scheduler_service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"
#include "util/rng.hpp"

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

TEST(SchedulerService, ComputesScheduleMatchingDirectCall) {
  SchedulerService service({.threads = 2, .cache_capacity = 16});
  const auto graph = shared_graph(dag::fork_join(5, 2.0, 4.0));
  const auto topo = shared_star(3);

  const auto result = service.submit(graph, topo, "oihsa").get();
  ASSERT_NE(result, nullptr);
  const sched::Schedule direct =
      sched::SpecScheduler(sched::oihsa_spec()).schedule(*graph, *topo);
  EXPECT_DOUBLE_EQ(result->makespan(), direct.makespan());
  EXPECT_EQ(result->algorithm(), "OIHSA");
}

TEST(SchedulerService, SecondIdenticalSubmitIsACacheHit) {
  SchedulerService service({.threads = 2, .cache_capacity = 16});
  const auto graph = shared_graph(dag::fork_join(5, 2.0, 4.0));
  const auto topo = shared_star(3);

  const auto first = service.submit(graph, topo, "bbsa").get();
  const auto second = service.submit(graph, topo, "bbsa").get();
  EXPECT_EQ(first, second);  // the very same cached object
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
  EXPECT_EQ(service.metrics().counter("svc_cache_hits_total").value(), 1u);
  EXPECT_EQ(service.metrics().counter("svc_requests_total").value(), 2u);
}

TEST(SchedulerService, EquivalentObjectsShareCacheEntries) {
  // Content addressing: a structurally identical graph built separately
  // hits the cache entry of the first one.
  SchedulerService service({.threads = 1, .cache_capacity = 16});
  const auto topo = shared_star(3);
  const auto a = shared_graph(dag::chain(6, 1.0, 2.0));
  const auto b = shared_graph(dag::chain(6, 1.0, 2.0));
  const auto first = service.submit(a, topo, "ba").get();
  const auto second = service.submit(b, topo, "ba").get();
  EXPECT_EQ(first, second);
}

TEST(SchedulerService, UnknownAlgorithmThrowsAtSubmit) {
  SchedulerService service({.threads = 1});
  const auto graph = shared_graph(dag::chain(3));
  const auto topo = shared_star(2);
  EXPECT_THROW(service.submit(graph, topo, "quantum"),
               std::invalid_argument);
  EXPECT_THROW((void)service.scheduler_for(""), std::invalid_argument);
}

TEST(SchedulerService, FactoryCoversAllAlgorithms) {
  // The service resolves names through the registry factory, memoised
  // per canonical key: aliases and case variants share one instance.
  SchedulerService service({.threads = 1});
  for (const auto& [name, display] :
       {std::pair{"ba", "BA"}, {"OIHSA", "OIHSA"}, {"bbsa", "BBSA"},
        {"classic", "CLASSIC"}, {"packet", "PACKET-BA"}}) {
    EXPECT_EQ(sched::make_scheduler(name)->name(), display);
    EXPECT_EQ(service.scheduler_for(name)->name(), display);
  }
  EXPECT_EQ(service.scheduler_for("oihsa"), service.scheduler_for("OIHSA"));
}

TEST(SchedulerService, SchedulerFailuresPropagateThroughFuture) {
  SchedulerService service({.threads = 1});
  // m has only an in-link: the scheduler rejects the fabric on the worker.
  net::Topology one_way;
  const net::NodeId a = one_way.add_processor(1.0, "a");
  const net::NodeId m = one_way.add_processor(1.0, "m");
  const net::NodeId z = one_way.add_processor(1.0, "z");
  one_way.add_duplex_link(a, z);
  (void)one_way.add_link(a, m);
  auto future = service.submit(
      shared_graph(dag::chain(2)),
      std::make_shared<const net::Topology>(std::move(one_way)), "ba");
  EXPECT_THROW(future.get(), std::invalid_argument);
  EXPECT_EQ(service.metrics().counter("svc_failures_total").value(), 1u);
}

TEST(SchedulerService, ConcurrentSubmissionsAllValid) {
  SchedulerService service(
      {.threads = 4, .cache_capacity = 64, .validate = true});
  const auto topo = shared_star(4);
  Rng rng(3);
  std::vector<std::shared_ptr<const dag::TaskGraph>> graphs;
  for (int i = 0; i < 6; ++i) {
    dag::LayeredDagParams params;
    params.num_tasks = 15;
    graphs.push_back(shared_graph(dag::random_layered(params, rng)));
  }
  std::vector<std::future<SchedulerService::SchedulePtr>> futures;
  for (const auto& algorithm : {"ba", "oihsa", "bbsa"}) {
    for (const auto& graph : graphs) {
      futures.push_back(service.submit(graph, topo, algorithm));
    }
  }
  for (auto& future : futures) {
    const auto schedule = future.get();
    ASSERT_NE(schedule, nullptr);
    EXPECT_GT(schedule->makespan(), 0.0);
  }
  EXPECT_EQ(service.metrics().counter("svc_requests_total").value(),
            3u * 6u);
  EXPECT_EQ(
      service.metrics().histogram("svc_schedule_seconds").count(),
      3u * 6u);
}

TEST(SchedulerService, MetricsTextDumpListsServiceMetrics) {
  SchedulerService service({.threads = 1});
  const auto schedule =
      service
          .submit(std::make_shared<const dag::TaskGraph>(
                      dag::chain(4, 1.0, 1.0)),
                  shared_star(2), "oihsa")
          .get();
  ASSERT_NE(schedule, nullptr);
  const std::string dump = service.metrics().text_dump();
  EXPECT_NE(dump.find("counter svc_requests_total 1"), std::string::npos);
  EXPECT_NE(dump.find("counter svc_cache_misses_total 1"),
            std::string::npos);
  EXPECT_NE(dump.find("histogram svc_schedule_seconds count 1"),
            std::string::npos);
  EXPECT_NE(dump.find("le +inf 1"), std::string::npos);
}

}  // namespace
}  // namespace edgesched::svc
