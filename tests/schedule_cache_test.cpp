#include "svc/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "util/rng.hpp"

namespace edgesched::svc {
namespace {

sched::Schedule dummy_schedule(const std::string& algorithm) {
  return sched::Schedule(algorithm, 0, 0);
}

ScheduleCache::SchedulePtr dummy_ptr(const std::string& algorithm) {
  return std::make_shared<const sched::Schedule>(dummy_schedule(algorithm));
}

net::Topology star4() {
  Rng rng(7);
  return net::switched_star(4, net::SpeedConfig{}, rng);
}

std::uint64_t algorithm(const sched::AlgorithmSpec& spec) {
  return sched::SpecScheduler(spec).fingerprint();
}

TEST(RequestFingerprint, StableAndNameInsensitive) {
  const dag::TaskGraph g1 = dag::chain(5, 2.0, 3.0);
  dag::TaskGraph g2 = dag::chain(5, 2.0, 3.0);
  g2.set_name("relabelled");
  const net::Topology topo = star4();
  const std::uint64_t oihsa = algorithm(sched::oihsa_spec());
  EXPECT_EQ(request_fingerprint(g1, topo, oihsa),
            request_fingerprint(g2, topo, oihsa));
  EXPECT_NE(request_fingerprint(g1, topo, oihsa),
            request_fingerprint(g1, topo, algorithm(sched::bbsa_spec())));
  // The algorithm part is structural: an edited policy under the
  // preset's display name keys apart from the preset.
  sched::AlgorithmSpec edited = sched::oihsa_spec();
  edited.routing = sched::RoutingPolicyKind::kBfsMinimal;
  EXPECT_NE(request_fingerprint(g1, topo, oihsa),
            request_fingerprint(g1, topo, algorithm(edited)));
}

TEST(RequestFingerprint, SensitiveToGraphAndTopologyContent) {
  const net::Topology topo = star4();
  const std::uint64_t ba = algorithm(sched::ba_spec());
  const dag::TaskGraph base = dag::chain(5, 2.0, 3.0);
  dag::TaskGraph heavier = dag::chain(5, 2.0, 3.0);
  heavier.set_weight(dag::TaskId(0u), 2.5);
  EXPECT_NE(request_fingerprint(base, topo, ba),
            request_fingerprint(heavier, topo, ba));

  Rng rng(7);
  net::Topology fast = net::switched_star(
      4, net::SpeedConfig{.fixed_link_speed = 2.0}, rng);
  EXPECT_NE(request_fingerprint(base, topo, ba),
            request_fingerprint(base, fast, ba));
}

TEST(TaskGraphFingerprint, DistinctDagsNeverCollideInFuzz) {
  Rng rng(20060815);
  std::unordered_set<std::uint64_t> seen;
  constexpr std::size_t kInstances = 1000;
  for (std::size_t i = 0; i < kInstances; ++i) {
    dag::LayeredDagParams params;
    params.num_tasks = 10 + rng.index(40);
    dag::TaskGraph graph = dag::random_layered(params, rng);
    seen.insert(graph.fingerprint());
  }
  // Random layered DAGs with random U(1,1000) costs are distinct with
  // overwhelming probability, so every fingerprint must be unique.
  EXPECT_EQ(seen.size(), kInstances);
}

TEST(ScheduleCache, HitReturnsCachedScheduleAndRefreshesRecency) {
  ScheduleCache cache(8);
  EXPECT_EQ(cache.get(1), nullptr);
  const auto entry = dummy_ptr("A");
  cache.put(1, entry);
  EXPECT_EQ(cache.get(1), entry);  // same object, not a copy
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ScheduleCache, HitMatchesFreshlyComputedSchedule) {
  const dag::TaskGraph graph = dag::fork_join(6, 3.0, 5.0);
  const net::Topology topo = star4();
  const sched::SpecScheduler oihsa(sched::oihsa_spec());

  ScheduleCache cache(4);
  const std::uint64_t key =
      request_fingerprint(graph, topo, oihsa.fingerprint());
  cache.put(key, std::make_shared<const sched::Schedule>(
                     oihsa.schedule(graph, topo)));

  const ScheduleCache::SchedulePtr hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  const sched::Schedule fresh = oihsa.schedule(graph, topo);
  ASSERT_EQ(hit->num_tasks(), fresh.num_tasks());
  EXPECT_DOUBLE_EQ(hit->makespan(), fresh.makespan());
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_EQ(hit->task(t).processor, fresh.task(t).processor);
    EXPECT_DOUBLE_EQ(hit->task(t).start, fresh.task(t).start);
    EXPECT_DOUBLE_EQ(hit->task(t).finish, fresh.task(t).finish);
  }
}

TEST(ScheduleCache, LruEvictsLeastRecentlyUsed) {
  ScheduleCache cache(2);
  cache.put(1, dummy_ptr("one"));
  cache.put(2, dummy_ptr("two"));
  EXPECT_NE(cache.get(1), nullptr);  // 1 is now most recent
  cache.put(3, dummy_ptr("three"));  // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(1)->algorithm(), "one");
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScheduleCache, PutExistingKeyReplacesWithoutEviction) {
  ScheduleCache cache(2);
  cache.put(1, dummy_ptr("old"));
  cache.put(1, dummy_ptr("new"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(1)->algorithm(), "new");
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ScheduleCache, EvictedEntryStaysAliveForHolders) {
  ScheduleCache cache(1);
  const auto held = dummy_ptr("held");
  cache.put(1, held);
  cache.put(2, dummy_ptr("other"));  // evicts key 1
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(held->algorithm(), "held");  // still valid
}

TEST(ScheduleCache, ZeroCapacityRejected) {
  EXPECT_THROW(ScheduleCache(0), std::invalid_argument);
}

TEST(ScheduleCache, ClearKeepsCounters) {
  ScheduleCache cache(4);
  cache.put(1, dummy_ptr("x"));
  EXPECT_NE(cache.get(1), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace edgesched::svc
