#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

net::Topology star(std::size_t procs) {
  Rng rng(1);
  return net::switched_star(procs, net::SpeedConfig{}, rng);
}

TEST(BasicAlgorithm, SingleProcessorSerialises) {
  Rng rng(1);
  const net::Topology topo = net::switched_star(1, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 5 * 2.0);  // all 5 tasks back-to-back
}

TEST(BasicAlgorithm, IndependentTasksSpread) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(4.0);
  (void)builder.add_task(4.0);
  const dag::TaskGraph graph = builder.build();
  const net::Topology topo = star(2);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);  // one task per processor
  EXPECT_NE(s.task(dag::TaskId(0u)).processor,
            s.task(dag::TaskId(1u)).processor);
}

TEST(BasicAlgorithm, KeepsChainLocalWhenCommIsExpensive) {
  // Chain a->b with cost 4 over a 2-hop star: remote finish would be 8,
  // local finish is 4.
  const dag::TaskGraph graph = dag::chain(2, 2.0, 4.0);
  const net::Topology topo = star(2);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(dag::TaskId(0u)).processor,
            s.task(dag::TaskId(1u)).processor);
  EXPECT_DOUBLE_EQ(s.makespan(), 4.0);
  EXPECT_EQ(s.communication(dag::EdgeId(0u)).kind,
            Communication::Kind::kLocal);
}

TEST(BasicAlgorithm, OffloadsWhenCommIsCheap) {
  // Fork with many children and cheap communication: children spread.
  const dag::TaskGraph graph = dag::fork(4, 10.0, 0.5);
  const net::Topology topo = star(4);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  // Source runs [0, 10]; at least one child is offloaded (10 + 0.5*2 hops
  // beats waiting 10 more units locally).
  std::size_t remote = 0;
  for (std::size_t i = 1; i <= 4; ++i) {
    if (s.task(dag::TaskId(i)).processor !=
        s.task(dag::TaskId(0u)).processor) {
      ++remote;
    }
  }
  EXPECT_GE(remote, 3u);
  EXPECT_LT(s.makespan(), 40.0);
}

TEST(BasicAlgorithm, CrossTransferOccupiesBothHops) {
  const dag::TaskGraph graph = dag::fork(2, 20.0, 6.0);
  const net::Topology topo = star(3);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  bool saw_exclusive = false;
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    if (comm.kind == Communication::Kind::kExclusive) {
      saw_exclusive = true;
      EXPECT_EQ(comm.route.size(), 2u);  // proc -> switch -> proc
      EXPECT_EQ(comm.occupations.size(), 2u);
    }
  }
  EXPECT_TRUE(saw_exclusive);
}

TEST(BasicAlgorithm, ZeroCostEdgesAreFree) {
  const dag::TaskGraph graph = dag::fork(2, 3.0, 0.0);
  const net::Topology topo = star(3);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);  // children start right at t=3
}

TEST(BasicAlgorithm, DeterministicAcrossRuns) {
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  Rng net_rng(6);
  const net::Topology topo = net::random_wan(wan, net_rng);
  const Schedule a = SpecScheduler(ba_spec()).schedule(graph, topo);
  const Schedule b = SpecScheduler(ba_spec()).schedule(graph, topo);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_EQ(a.task(t).processor, b.task(t).processor);
    EXPECT_DOUBLE_EQ(a.task(t).start, b.task(t).start);
  }
}

TEST(BasicAlgorithm, HeterogeneousSpeedsRespected) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(10.0);
  const dag::TaskGraph graph = builder.build();
  net::Topology topo;
  const net::NodeId slow = topo.add_processor(1.0, "slow");
  const net::NodeId fast = topo.add_processor(5.0, "fast");
  topo.add_duplex_link(slow, fast, 1.0);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(dag::TaskId(0u)).processor, fast);
  EXPECT_DOUBLE_EQ(s.makespan(), 2.0);
}

TEST(BasicAlgorithm, RejectsBadInputs) {
  const dag::TaskGraph graph = dag::chain(2);
  net::Topology no_procs;
  (void)no_procs.add_switch();
  EXPECT_THROW((void)SpecScheduler(ba_spec()).schedule(graph, no_procs),
               std::invalid_argument);

  net::Topology disconnected;
  (void)disconnected.add_processor();
  (void)disconnected.add_processor();
  EXPECT_THROW((void)SpecScheduler(ba_spec()).schedule(graph, disconnected),
               std::invalid_argument);
}

TEST(BasicAlgorithm, ValidOnBusTopology) {
  Rng rng(2);
  const net::Topology topo = net::bus(3, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork_join(4, 1.0, 2.0);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
}

TEST(BasicAlgorithm, ValidOnHalfDuplexPair) {
  net::Topology topo;
  const net::NodeId a = topo.add_processor();
  const net::NodeId b = topo.add_processor();
  topo.add_bus({a, b}, 1.0);
  const dag::TaskGraph graph = dag::stencil_1d(3, 3, 1.0, 1.5);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
}

}  // namespace
}  // namespace edgesched::sched
