// Intra-run parallelism determinism suite.
//
// The GA's parallel population evaluation and the SA's speculative
// neighbor batches promise one contract: the intra-run worker count is
// *configuration, not algorithm state* — results are byte-identical at
// every setting (docs/parallelism.md). This suite checks that promise:
//
//   * GA and SA are same-seed bit-equal at every worker count;
//   * concurrent outer runs each fanning inner workers over one shared
//     platform stay race-free (this file runs under TSan in CI).
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
#include "sched/intra_run.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "schedule_canon.hpp"
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

constexpr std::size_t kThreadCounts[] = {2, 4, 8};

// The metaheuristics draw all randomness from per-member streams, so
// same seed => bit-equal result at every worker count.
TEST(ParallelEngineProperty, MetaheuristicsAreSameSeedBitEqual) {
  for (const char* key : {"ga", "sa"}) {
    const AlgorithmEntry* entry = find_algorithm(key);
    ASSERT_NE(entry, nullptr) << key;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Instance instance = make_instance(seed);
      const std::unique_ptr<Scheduler> scheduler = entry->make();
      std::string want;
      {
        const ScopedIntraThreads serial(1);
        want = test::canonical_schedule(
            instance.graph,
            scheduler->schedule(instance.graph, instance.topology));
      }
      for (const std::size_t threads : kThreadCounts) {
        const ScopedIntraThreads scoped(threads);
        EXPECT_EQ(want,
                  test::canonical_schedule(
                      instance.graph, scheduler->schedule(
                                          instance.graph,
                                          instance.topology)))
            << key << " diverged at " << threads << " threads, seed "
            << seed;
      }
    }
  }
}

// Outer concurrency × inner fan-out over one shared context: the TSan
// proof that GA/SA worker lanes, the seeding engine runs (which fill the
// shared route table lazily) and the per-run counter flushes never race.
TEST(ParallelEngineProperty, ConcurrentOuterRunsWithInnerWorkersAreSafe) {
  const Instance instance = make_instance(42);
  const PlatformContext platform(instance.topology);
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  std::vector<std::string> reference;
  for (const char* key : {"ga", "sa"}) {
    const AlgorithmEntry* entry = find_algorithm(key);
    ASSERT_NE(entry, nullptr) << key;
    schedulers.push_back(entry->make());
    const ScopedIntraThreads serial(1);
    reference.push_back(test::canonical_schedule(
        instance.graph,
        schedulers.back()->schedule(instance.graph, instance.topology)));
  }

  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kIterations = 2;
  std::vector<std::vector<bool>> ok(
      kOuter, std::vector<bool>(kIterations * schedulers.size(), false));
  std::vector<std::thread> threads;
  threads.reserve(kOuter);
  for (std::size_t t = 0; t < kOuter; ++t) {
    threads.emplace_back([&, t] {
      const ScopedIntraThreads scoped(2 + t % 2);
      for (std::size_t i = 0; i < kIterations; ++i) {
        for (std::size_t a = 0; a < schedulers.size(); ++a) {
          const Schedule schedule =
              schedulers[a]->schedule(instance.graph, platform);
          ok[t][i * schedulers.size() + a] =
              test::canonical_schedule(instance.graph, schedule) ==
              reference[a];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kOuter; ++t) {
    for (std::size_t i = 0; i < ok[t].size(); ++i) {
      EXPECT_TRUE(ok[t][i]) << "outer thread " << t << " run " << i;
    }
  }
}

}  // namespace
}  // namespace edgesched::sched
