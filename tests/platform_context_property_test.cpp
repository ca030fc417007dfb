// PlatformContext equivalence fuzz suite: a context shared across runs
// must behave exactly like a fresh one. For every engine-backed registry
// algorithm over a few hundred random instances, scheduling through a
// shared PlatformContext must reproduce `schedule(graph, topology)` —
// which builds a throwaway context per call — byte for byte (canonical
// form, doubles as bit patterns). The second run through the shared
// context reads an already filled route table and a recycled pooled
// workspace rather than fresh ones.
//
// The concurrent suite shares one context across many threads cycling
// through the sweep algorithms; it is part of the TSan job, so a data
// race in the lazily filled route table or the workspace pool fails the
// build rather than corrupting a schedule.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"
#include "schedule_canon.hpp"
#include "svc/scheduler_service.hpp"
#include "util/rng.hpp"

namespace edgesched::sched {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topology;
};

// Everything about the instance — size, shape, CCR, topology family —
// is drawn from the one Rng(seed), so the seed alone replays it.
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = static_cast<std::size_t>(rng.uniform_int(10, 30));
  dag::TaskGraph graph = dag::random_layered(params, rng);
  const double ccrs[] = {0.5, 2.0, 5.0, 10.0};
  dag::rescale_to_ccr(graph, ccrs[rng.uniform_int(0, 3)]);

  net::SpeedConfig speeds;
  speeds.heterogeneous = (seed % 3 == 0);
  net::Topology topology = [&]() -> net::Topology {
    switch (rng.uniform_int(0, 4)) {
      case 0: return net::fully_connected(4, speeds, rng);
      case 1: return net::switched_star(5, speeds, rng);
      case 2: return net::ring(5, speeds, rng);
      case 3: return net::bus(4, speeds, rng);
      default: {
        net::RandomWanParams wan;
        wan.num_processors = 8;
        wan.speeds = speeds;
        return net::random_wan(wan, rng);
      }
    }
  }();
  return Instance{std::move(graph), std::move(topology)};
}

std::vector<const AlgorithmEntry*> engine_backed_entries() {
  std::vector<const AlgorithmEntry*> entries;
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    if (entry.engine_backed()) {
      entries.push_back(&entry);
    }
  }
  return entries;
}

// The core equivalence oracle: schedule(graph, topology), i.e. a fresh
// context, versus schedule(graph, shared context), twice through the
// shared context so the second run reuses its filled routes and a
// pooled workspace.
TEST(PlatformContextProperty, EngineBackedAlgorithmsAreByteIdentical) {
  const std::vector<const AlgorithmEntry*> entries = engine_backed_entries();
  ASSERT_FALSE(entries.empty());
  constexpr std::uint64_t kInstances = 200;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const Instance instance = make_instance(seed);
    const PlatformContext platform(instance.topology);
    for (const AlgorithmEntry* entry : entries) {
      const std::unique_ptr<Scheduler> scheduler = entry->make();
      const Schedule baseline =
          scheduler->schedule(instance.graph, instance.topology);
      validate_or_throw(instance.graph, instance.topology, baseline);
      const std::string want =
          test::canonical_schedule(instance.graph, baseline);

      const Schedule first = scheduler->schedule(instance.graph, platform);
      EXPECT_EQ(want, test::canonical_schedule(instance.graph, first))
          << entry->key << " diverged via fresh workspace, seed " << seed;

      const Schedule second = scheduler->schedule(instance.graph, platform);
      EXPECT_EQ(want, test::canonical_schedule(instance.graph, second))
          << entry->key << " diverged via recycled workspace, seed " << seed;
    }
  }
}

// Non-engine schedulers (classic model, GA, SA) implement the same one
// virtual: a shared context must match the topology overload's fresh
// one exactly there too.
TEST(PlatformContextProperty, DefaultForwardingMatchesTopologyPath) {
  for (const char* key : {"classic", "ga", "sa"}) {
    const AlgorithmEntry* entry = find_algorithm(key);
    ASSERT_NE(entry, nullptr) << key;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance = make_instance(seed);
      const PlatformContext platform(instance.topology);
      const std::unique_ptr<Scheduler> scheduler = entry->make();
      const Schedule baseline =
          scheduler->schedule(instance.graph, instance.topology);
      const Schedule via_platform =
          scheduler->schedule(instance.graph, platform);
      EXPECT_EQ(test::canonical_schedule(instance.graph, baseline),
                test::canonical_schedule(instance.graph, via_platform))
          << key << " seed " << seed;
    }
  }
}

// N threads hammer one shared context concurrently, cycling through the
// sweep algorithms. Every schedule must equal the serial reference —
// and under TSan this doubles as the data-race proof for the route
// table's lazy fill and the workspace pool.
TEST(PlatformContextProperty, ConcurrentSharingIsRaceFreeAndDeterministic) {
  const Instance instance = make_instance(42);
  const PlatformContext platform(instance.topology);
  const std::vector<const AlgorithmEntry*> entries = engine_backed_entries();

  std::vector<std::string> reference;
  reference.reserve(entries.size());
  for (const AlgorithmEntry* entry : entries) {
    reference.push_back(test::canonical_schedule(
        instance.graph,
        entry->make()->schedule(instance.graph, instance.topology)));
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 16;
  std::vector<std::vector<bool>> ok(
      kThreads, std::vector<bool>(kIterations * entries.size(), false));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        for (std::size_t a = 0; a < entries.size(); ++a) {
          const Schedule schedule =
              entries[a]->make()->schedule(instance.graph, platform);
          ok[t][i * entries.size() + a] =
              test::canonical_schedule(instance.graph, schedule) ==
              reference[a];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < ok[t].size(); ++i) {
      EXPECT_TRUE(ok[t][i]) << "thread " << t << " run " << i;
    }
  }
  // The pool retains at most one workspace per concurrently active run.
  EXPECT_GE(platform.pooled_workspaces(), 1u);
  EXPECT_LE(platform.pooled_workspaces(), kThreads);
}

// Sequential reuse never grows the pool past one workspace.
TEST(PlatformContextProperty, SequentialRunsRecycleOneWorkspace) {
  const Instance instance = make_instance(7);
  const PlatformContext platform(instance.topology);
  const AlgorithmEntry* entry = find_algorithm("oihsa");
  ASSERT_NE(entry, nullptr);
  const std::unique_ptr<Scheduler> scheduler = entry->make();
  for (int i = 0; i < 5; ++i) {
    (void)scheduler->schedule(instance.graph, platform);
    EXPECT_EQ(platform.pooled_workspaces(), 1u);
  }
}

// Service-level integration: distinct DAGs over one fabric share a
// single cached platform (one miss, then hits), the counters mirror the
// cache stats, and scheduler resolution is memoised across alias and
// case variants of one registry key.
TEST(PlatformContextProperty, ServiceSharesPlatformAndMemoisesSchedulers) {
  svc::ServiceConfig config;
  config.threads = 1;
  svc::SchedulerService service(config);

  const auto topology = std::make_shared<const net::Topology>(
      make_instance(11).topology);
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    const auto graph = std::make_shared<const dag::TaskGraph>(
        make_instance(seed).graph);
    const auto schedule = service.submit(graph, topology, "ba").get();
    ASSERT_NE(schedule, nullptr);
  }

  const svc::CacheStats stats = service.platform_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(service.platform_cache().size(), 1u);
  EXPECT_EQ(
      service.metrics().counter("svc_platform_cache_misses_total").value(),
      1u);
  EXPECT_EQ(service.metrics().counter("svc_platform_cache_hits_total").value(),
            2u);

  // One shared instance per canonical key, however the name is spelt.
  EXPECT_EQ(service.scheduler_for("ba").get(),
            service.scheduler_for("BA").get());
  EXPECT_NE(service.scheduler_for("ba").get(),
            service.scheduler_for("oihsa").get());
  EXPECT_THROW((void)service.scheduler_for("no-such-algorithm"),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::sched
