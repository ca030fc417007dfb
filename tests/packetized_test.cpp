#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "dag/serialization.hpp"
#include "net/builders.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

net::Topology star(std::size_t procs) {
  Rng rng(1);
  return net::switched_star(procs, net::SpeedConfig{}, rng);
}

/// PACKET-BA with the given packet size.
SpecScheduler packet_ba(double packet_size) {
  AlgorithmSpec spec = packet_ba_spec();
  spec.packet_size = packet_size;
  return SpecScheduler(spec);
}

TEST(PacketizedBa, SingleProcessorSerialises) {
  const net::Topology topo = star(1);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Schedule s = SpecScheduler(packet_ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

TEST(PacketizedBa, SplitsBigMessages) {
  // One forced remote edge of cost 20 with packet size 5 -> 4 packets.
  const dag::TaskGraph graph = dag::fork(2, 30.0, 20.0);
  const net::Topology topo = star(2);
  const Schedule s = packet_ba(5.0).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  bool saw_packets = false;
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    if (comm.kind == Communication::Kind::kPacketized) {
      saw_packets = true;
      EXPECT_EQ(comm.packet_count, 4u);
      EXPECT_EQ(comm.occupations.size(), 4u * comm.route.size());
    }
  }
  EXPECT_TRUE(saw_packets);
}

TEST(PacketizedBa, PacketsPipelineAcrossHops) {
  // Two hops, one remote message: with store-and-forward circuit
  // switching the transfer takes 2·c/s; with small packets it pipelines
  // towards c/s + packet time.
  dag::TaskGraphBuilder builder;
  // x (highest bottom level) claims the fast processor; a then runs on
  // the slow one and its edge to b crosses the network.
  const dag::TaskId x = builder.add_task(100.0, "x");
  const dag::TaskId a = builder.add_task(1.0, "a");
  const dag::TaskId b = builder.add_task(50.0, "b");
  (void)x;
  const dag::EdgeId a_b = builder.add_edge(a, b, 16.0);
  const dag::TaskGraph graph = builder.build();

  net::Topology topo;
  const net::NodeId p0 = topo.add_processor(1.0);
  const net::NodeId p1 = topo.add_processor(10.0);  // b must move here
  const net::NodeId sw = topo.add_switch();
  topo.add_duplex_link(p0, sw, 1.0);
  topo.add_duplex_link(sw, p1, 1.0);

  // Size 16: a single packet, i.e. a store-and-forward circuit. Size 2:
  // 8 packets pipeline.
  const Schedule s_coarse = packet_ba(16.0).schedule(graph, topo);
  const Schedule s_fine = packet_ba(2.0).schedule(graph, topo);
  validate_or_throw(graph, topo, s_coarse);
  validate_or_throw(graph, topo, s_fine);
  ASSERT_EQ(s_coarse.task(a).processor, p0);
  ASSERT_EQ(s_coarse.task(b).processor, p1);
  ASSERT_EQ(s_fine.task(b).processor, p1);
  // Coarse: ships at t=1, 16 units per hop store-and-forward:
  // 1 + 16 + 16 = 33. Fine: last of 8 2-unit packets leaves hop 1 at 17
  // and crosses hop 2 by 19.
  EXPECT_NEAR(s_coarse.communication(a_b).arrival, 33.0, 1e-9);
  EXPECT_NEAR(s_fine.communication(a_b).arrival, 19.0, 1e-9);
  EXPECT_LT(s_fine.makespan(), s_coarse.makespan());
}

TEST(PacketizedBa, ValidOnRandomInstances) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    dag::LayeredDagParams params;
    params.num_tasks = 30;
    dag::TaskGraph graph = dag::random_layered(params, rng);
    dag::rescale_to_ccr(graph, 3.0);
    net::RandomWanParams wan;
    wan.num_processors = 6;
    const net::Topology topo = net::random_wan(wan, rng);
    for (double packet_size : {50.0, 250.0, 1e9}) {
      const Schedule s = packet_ba(packet_size).schedule(graph, topo);
      validate_or_throw(graph, topo, s);
    }
  }
}

TEST(PacketizedBa, DeterministicAcrossRuns) {
  Rng rng(7);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 5;
  const net::Topology topo = net::random_wan(wan, rng);
  const Schedule a = SpecScheduler(packet_ba_spec()).schedule(graph, topo);
  const Schedule b = SpecScheduler(packet_ba_spec()).schedule(graph, topo);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
}

TEST(PacketizedBa, RejectsBadPacketSize) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double size : {0.0, -1.0, nan, inf, -inf}) {
    EXPECT_THROW((void)packet_ba(size), std::invalid_argument) << size;
  }
}

TEST(PacketizedBa, HugePacketSizeMatchesSaFCircuit) {
  // A single packet per edge equals store-and-forward circuit switching:
  // still a valid schedule, one occupation per hop.
  const dag::TaskGraph graph = dag::fork(2, 30.0, 10.0);
  const net::Topology topo = star(2);
  const Schedule s = packet_ba(1e12).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    if (comm.kind == Communication::Kind::kPacketized) {
      EXPECT_EQ(comm.packet_count, 1u);
    }
  }
}

/// data/mapreduce.txt with the cost of edge 0 -> 2 raised to `cost`.
dag::TaskGraph mapreduce_with_cost(const std::string& cost) {
  std::istringstream text(
      "graph mapreduce\n"
      "task 0 6 produce\ntask 1 14 map0\ntask 2 14 map1\n"
      "task 3 14 map2\ntask 4 14 map3\ntask 5 8 reduce0\n"
      "task 6 8 reduce1\ntask 7 4 collect\n"
      "edge 0 1 9\nedge 0 2 " + cost + "\nedge 0 3 9\nedge 0 4 9\n"
      "edge 1 5 5\nedge 2 5 5\nedge 3 6 5\nedge 4 6 5\n"
      "edge 5 7 3\nedge 6 7 3\n");
  return dag::read_text(text);
}

net::Topology wan4() {
  Rng rng(1);
  net::RandomWanParams params;
  params.num_processors = 4;
  return net::random_wan(params, rng);
}

TEST(PacketizedBa, RejectsAnEdgeOverThePacketBound) {
  // 1e8 / 250 = 400000 packets: before the bound this instance ran for
  // minutes; now it is a typed error naming the edge and the count.
  const dag::TaskGraph graph = mapreduce_with_cost("1e8");
  const net::Topology topo = wan4();
  try {
    (void)SpecScheduler(packet_ba_spec()).schedule(graph, topo);
    FAIL() << "PACKET-BA accepted a 400000-packet edge";
  } catch (const PacketCountError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("edge 1 (task 0 -> task 2)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("400000 packets"), std::string::npos) << what;
  }
  // 1e17 would never finish; the count must not overflow either.
  EXPECT_THROW(
      (void)SpecScheduler(packet_ba_spec())
          .schedule(mapreduce_with_cost("1e17"), topo),
      PacketCountError);
  // The bound is the packetized model's: the other presets accept it.
  EXPECT_NO_THROW((void)SpecScheduler(ba_spec()).schedule(graph, topo));
}

TEST(PacketizedBa, AcceptsAnEdgeAtThePacketBound) {
  // Exactly kMaxPacketsPerEdge packets of the default size is accepted.
  const dag::TaskGraph graph = mapreduce_with_cost(std::to_string(
      static_cast<long long>(kMaxPacketsPerEdge) * 250));
  const net::Topology topo = star(2);
  EXPECT_NO_THROW(
      (void)SpecScheduler(packet_ba_spec()).schedule(graph, topo));
}

}  // namespace
}  // namespace edgesched::sched
