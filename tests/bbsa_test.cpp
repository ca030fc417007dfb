#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

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

TEST(Bbsa, SingleProcessorSerialises) {
  const net::Topology topo = star(1);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Schedule s = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

TEST(Bbsa, KeepsChainLocalWhenCommIsExpensive) {
  const dag::TaskGraph graph = dag::chain(2, 2.0, 4.0);
  const net::Topology topo = star(2);
  const Schedule s = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(dag::TaskId(0u)).processor,
            s.task(dag::TaskId(1u)).processor);
}

TEST(Bbsa, CrossTransferUsesFluidProfiles) {
  // Two heavy independent producers spread over both processors; the join
  // task then receives one edge remotely. Hand-traced: b (higher bl) goes
  // to p0, a to p1, c joins on p0, so edge a->c crosses p1 -> sw -> p0.
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(10.0, "a");
  const dag::TaskId b = builder.add_task(10.0, "b");
  const dag::TaskId c = builder.add_task(1.0, "c");
  const dag::EdgeId a_c = builder.add_edge(a, c, 2.0);
  (void)builder.add_edge(b, c, 4.0);
  const dag::TaskGraph graph = builder.build();

  net::Topology topo;
  const net::NodeId p0 = topo.add_processor(1.0, "p0");
  const net::NodeId p1 = topo.add_processor(1.0, "p1");
  const net::NodeId sw = topo.add_switch();
  topo.add_duplex_link(p0, sw, 2.0);
  topo.add_duplex_link(sw, p1, 1.0);

  const Schedule s = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.task(b).processor, p0);
  EXPECT_EQ(s.task(a).processor, p1);
  EXPECT_EQ(s.task(c).processor, p0);
  const Communication comm = s.communication(a_c);
  ASSERT_EQ(comm.kind, Communication::Kind::kBandwidth);
  ASSERT_EQ(comm.profiles.size(), 2u);
  // First hop p1->sw (speed 1): volume 2 in [10, 12]; second hop sw->p0
  // (speed 2) is inflow-limited and mirrors it: arrival 12.
  EXPECT_NEAR(comm.profiles[0].finish_time(), 12.0, 1e-9);
  EXPECT_NEAR(comm.arrival, 12.0, 1e-9);
  EXPECT_NEAR(s.task(c).start, 12.0, 1e-9);
}

TEST(Bbsa, SharesLinkBetweenConcurrentTransfers) {
  // Two producers on separate processors both feed consumers across the
  // same switch; with bandwidth sharing both transfers can overlap.
  const dag::TaskGraph graph = dag::join(6, 1.0, 5.0);
  const net::Topology topo = star(4);
  const Schedule ours = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  const Schedule base = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, ours);
  EXPECT_LE(ours.makespan(), base.makespan() * 1.25);
}

TEST(Bbsa, ProfilesConserveVolumePerHop) {
  Rng rng(31);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 3.0);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  const net::Topology topo = net::random_wan(wan, rng);
  const Schedule s = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t h = 0; h < comm.profiles.size(); ++h) {
        EXPECT_NEAR(comm.profiles[h].volume(), graph.cost(e),
                    1e-6 * std::max(1.0, graph.cost(e)));
      }
    }
  }
}

TEST(Bbsa, AllOptionCombinationsProduceValidSchedules) {
  Rng rng(33);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  const net::Topology topo = net::random_wan(wan, rng);
  for (bool edge_priority : {false, true}) {
    for (bool routing : {false, true}) {
      AlgorithmSpec spec = bbsa_spec();
      spec.edge_order = edge_priority
                            ? EdgeOrderPolicyKind::kByCostDescending
                            : EdgeOrderPolicyKind::kPredecessorOrder;
      spec.routing = routing ? RoutingPolicyKind::kProbeDijkstra
                             : RoutingPolicyKind::kBfsMinimal;
      const Schedule s = SpecScheduler(spec).schedule(graph, topo);
      validate_or_throw(graph, topo, s);
    }
  }
}

TEST(Bbsa, RejectsADomainWithTwoSpeeds) {
  // One medium has one capacity. `add_link(…, domain)` does not check
  // the speeds it is given; the bandwidth state must reject the fabric
  // with an argument error, not an internal assertion.
  net::Topology topo;
  const net::NodeId p0 = topo.add_processor(1.0, "p0");
  const net::NodeId p1 = topo.add_processor(1.0, "p1");
  const net::DomainId medium = topo.add_domain();
  topo.add_link(p0, p1, 1.0, medium);
  topo.add_link(p1, p0, 2.0, medium);
  const dag::TaskGraph graph = dag::fork(2, 2.0, 4.0);
  EXPECT_THROW((void)SpecScheduler(bbsa_spec()).schedule(graph, topo),
               std::invalid_argument);
}

TEST(Bbsa, DeterministicAcrossRuns) {
  Rng rng(35);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 8;
  const net::Topology topo = net::random_wan(wan, rng);
  const Schedule a = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  const Schedule b = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_EQ(a.task(t).processor, b.task(t).processor);
  }
}

TEST(Bbsa, BeatsBaOnAverageUnderContention) {
  double ba_total = 0.0;
  double bbsa_total = 0.0;
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
    bbsa_total += SpecScheduler(bbsa_spec()).schedule(graph, topo).makespan();
  }
  EXPECT_LE(bbsa_total, ba_total * 1.02);
}

}  // namespace
}  // namespace edgesched::sched
