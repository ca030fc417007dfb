#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

net::Topology star(std::size_t procs) {
  Rng rng(1);
  return net::switched_star(procs, net::SpeedConfig{}, rng);
}

TEST(Oihsa, SingleProcessorSerialises) {
  const net::Topology topo = star(1);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

TEST(Oihsa, KeepsChainLocalWhenCommIsExpensive) {
  const dag::TaskGraph graph = dag::chain(2, 2.0, 4.0);
  const net::Topology topo = star(2);
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(dag::TaskId(0u)).processor,
            s.task(dag::TaskId(1u)).processor);
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);
}

TEST(Oihsa, PrefersFastProcessorInHeterogeneousSystems) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(10.0);
  const dag::TaskGraph graph = builder.build();
  net::Topology topo;
  const net::NodeId slow = topo.add_processor(1.0, "slow");
  const net::NodeId fast = topo.add_processor(5.0, "fast");
  topo.add_duplex_link(slow, fast, 1.0);
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(dag::TaskId(0u)).processor, fast);
}

TEST(Oihsa, EdgePriorityOrdersBigEdgesFirst) {
  // Join of two predecessors with very different edge costs into one sink
  // on a third processor: the big edge must get the early link slot.
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(1.0, "a");
  const dag::TaskId b = builder.add_task(1.0, "b");
  const dag::TaskId c = builder.add_task(1.0, "c");
  const dag::EdgeId small = builder.add_edge(a, c, 1.0);
  const dag::EdgeId big = builder.add_edge(b, c, 8.0);
  const dag::TaskGraph graph = builder.build();
  const net::Topology topo = star(3);
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  const Communication comm_small = s.communication(small);
  const Communication comm_big = s.communication(big);
  if (comm_small.kind == Communication::Kind::kExclusive &&
      comm_big.kind == Communication::Kind::kExclusive &&
      !comm_big.occupations.empty() && !comm_small.occupations.empty()) {
    // Both cross the network towards c; where they share the inbound
    // link, the big edge was booked first and cannot start later than
    // the contended continuation of the small edge.
    EXPECT_LE(comm_big.occupations.back().start,
              comm_small.occupations.back().finish);
  }
}

TEST(Oihsa, NeverWorseThanBaOnContendedJoin) {
  // Many cheap producers feeding one consumer through a single switch —
  // the scenario optimal insertion and modified routing target.
  const dag::TaskGraph graph = dag::join(6, 1.0, 5.0);
  const net::Topology topo = star(4);
  const Schedule ours = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  const Schedule base = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, ours);
  validate_or_throw(graph, topo, base);
  EXPECT_LE(ours.makespan(), base.makespan() * 1.25);
}

TEST(Oihsa, AllOptionCombinationsProduceValidSchedules) {
  Rng rng(8);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  Rng net_rng(9);
  const net::Topology topo = net::random_wan(wan, net_rng);
  for (bool edge_priority : {false, true}) {
    for (bool routing : {false, true}) {
      for (bool insertion : {false, true}) {
        AlgorithmSpec spec = oihsa_spec();
        spec.edge_order = edge_priority
                              ? EdgeOrderPolicyKind::kByCostDescending
                              : EdgeOrderPolicyKind::kPredecessorOrder;
        spec.routing = routing ? RoutingPolicyKind::kProbeDijkstra
                               : RoutingPolicyKind::kBfsMinimal;
        spec.insertion = insertion ? InsertionPolicyKind::kOptimal
                                   : InsertionPolicyKind::kFirstFit;
        const Schedule s = SpecScheduler(spec).schedule(graph, topo);
        validate_or_throw(graph, topo, s);
      }
    }
  }
}

TEST(Oihsa, DeterministicAcrossRuns) {
  Rng rng(15);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 8;
  Rng net_rng(16);
  const net::Topology topo = net::random_wan(wan, net_rng);
  const Schedule a = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  const Schedule b = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_EQ(a.task(t).processor, b.task(t).processor);
    EXPECT_DOUBLE_EQ(a.task(t).start, b.task(t).start);
  }
}

TEST(Oihsa, MakespanAtLeastComputationCriticalPath) {
  Rng rng(21);
  dag::LayeredDagParams params;
  params.num_tasks = 40;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const net::Topology topo = star(4);  // homogeneous speed 1
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  const auto bl = dag::bottom_levels_computation_only(graph);
  const double lower_bound = *std::max_element(bl.begin(), bl.end());
  EXPECT_GE(s.makespan(), lower_bound - 1e-6);
}

TEST(Oihsa, BeatsBasicInsertionOnAverage) {
  // Statistical check over fixed seeds: with contention present, OIHSA's
  // mean makespan does not exceed BA's. Individual instances may go
  // either way; the average must not.
  double ba_total = 0.0;
  double oihsa_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    dag::LayeredDagParams params;
    params.num_tasks = 30;
    dag::TaskGraph graph = dag::random_layered(params, rng);
    dag::rescale_to_ccr(graph, 5.0);
    net::RandomWanParams wan;
    wan.num_processors = 8;
    wan.fanout_min = 2;
    wan.fanout_max = 4;
    const net::Topology topo = net::random_wan(wan, rng);
    ba_total += SpecScheduler(ba_spec()).schedule(graph, topo).makespan();
    oihsa_total += SpecScheduler(oihsa_spec()).schedule(graph, topo).makespan();
  }
  EXPECT_LE(oihsa_total, ba_total * 1.02);
}

}  // namespace
}  // namespace edgesched::sched
