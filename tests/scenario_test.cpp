// Hand-traced end-to-end scenarios: small instances whose optimal-ish
// schedules can be derived on paper, pinning each algorithm's exact
// behaviour (not just validity).
#include <gtest/gtest.h>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include <algorithm>

#include "sched/engine.hpp"
#include "sched/network_state.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

/// Three processors on one switch, all speeds 1.
struct Star3 {
  net::Topology topo;
  net::NodeId p1, p2, p3, hub;

  Star3() {
    hub = topo.add_switch("hub");
    p1 = topo.add_processor(1.0, "p1");
    p2 = topo.add_processor(1.0, "p2");
    p3 = topo.add_processor(1.0, "p3");
    topo.add_duplex_link(p1, hub, 1.0);
    topo.add_duplex_link(p2, hub, 1.0);
    topo.add_duplex_link(p3, hub, 1.0);
  }
};

TEST(Scenario, BaJoinContentionHandTrace) {
  // Two producers (w=3) feed a sink (w=3) with cost-9 messages. Producers
  // spread to p1/p2 (EFT). Sink joins one of them; the other message
  // crosses hub. All algorithms: sink on a producer's processor, one
  // remote transfer of 9: ready at 3, arrive 12, run [12, 15].
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(3.0, "a");
  const dag::TaskId b = builder.add_task(3.0, "b");
  const dag::TaskId sink = builder.add_task(3.0, "sink");
  builder.add_edge(a, sink, 9.0);
  builder.add_edge(b, sink, 9.0);
  const dag::TaskGraph graph = builder.build();

  Star3 net;
  for (const auto& schedule :
       {SpecScheduler(ba_spec()).schedule(graph, net.topo),
        SpecScheduler(oihsa_spec()).schedule(graph, net.topo),
        SpecScheduler(bbsa_spec()).schedule(graph, net.topo)}) {
    validate_or_throw(graph, net.topo, schedule);
    EXPECT_NE(schedule.task(a).processor, schedule.task(b).processor);
    const bool with_a =
        schedule.task(sink).processor == schedule.task(a).processor;
    const bool with_b =
        schedule.task(sink).processor == schedule.task(b).processor;
    EXPECT_TRUE(with_a || with_b) << schedule.algorithm();
    EXPECT_DOUBLE_EQ(schedule.makespan(), 15.0) << schedule.algorithm();
  }
}

TEST(Scenario, OihsaDeferralEndToEnd) {
  // Producer a on p1 sends a SMALL message to x (forced to p2) first,
  // then a LARGE message to y (forced to p3). Under OIHSA's decreasing-
  // cost edge order within one ready task this is exercised elsewhere;
  // here both consumers become ready at different times so the small
  // transfer books the shared uplink p1->hub first, and the large edge's
  // optimal insertion may defer it (its own next hop hub->p2 has slack
  // only if contended). The pinned expectation: the final schedule is
  // valid and the large transfer is not delayed behind the small one by
  // more than the small one's duration.
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(2.0, "a");
  const dag::TaskId filler2 = builder.add_task(50.0, "filler2");
  const dag::TaskId filler3 = builder.add_task(50.0, "filler3");
  const dag::TaskId x = builder.add_task(50.0, "x");
  const dag::TaskId y = builder.add_task(50.0, "y");
  builder.add_edge(a, x, 3.0);
  builder.add_edge(a, y, 12.0);
  const dag::TaskGraph graph = builder.build();
  (void)filler2;
  (void)filler3;

  Star3 net;
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, net.topo);
  validate_or_throw(graph, net.topo, s);
  const Communication small = s.communication(dag::EdgeId(0u));
  const Communication large = s.communication(dag::EdgeId(1u));
  if (small.kind == Communication::Kind::kExclusive &&
      large.kind == Communication::Kind::kExclusive) {
    // Cost order: the large edge books first and arrives no later than
    // ready + route length (uncontended) when x and y land on distinct
    // remote processors.
    EXPECT_LE(large.arrival, s.task(a).finish + 12.0 + 3.0 + 1e-9);
  }
}

TEST(Scenario, BbsaConvergingTransfersShareTheFastLink) {
  // Hand-traced bandwidth sharing: two producers behind slow (speed-1)
  // uplinks converge on one consumer behind a fast (speed-4) downlink.
  // Each inflow trickles at rate 1, so the downlink carries both
  // transfers simultaneously using only half its capacity — under the
  // exclusive model the second transfer would queue instead.
  net::Topology topo;
  const net::NodeId hub = topo.add_switch("hub");
  const net::NodeId p1 = topo.add_processor(1.0, "p1");
  const net::NodeId p2 = topo.add_processor(1.0, "p2");
  const net::NodeId p3 = topo.add_processor(1.0, "p3");
  const net::LinkId up1 = topo.add_duplex_link(p1, hub, 1.0).first;
  const net::LinkId up2 = topo.add_duplex_link(p2, hub, 1.0).first;
  const auto [down_out, down_in] = topo.add_duplex_link(hub, p3, 4.0);
  (void)down_in;

  BandwidthNetworkState state(topo);
  const auto t1 = state.commit_edge({up1, down_out}, 0.0, 8.0);
  const auto t2 = state.commit_edge({up2, down_out}, 0.0, 8.0);
  // Both uplinks carry [0, 8] at rate 1; the downlink mirrors each
  // inflow (rate 1 <= remaining 4 and 3): both arrive at 8.
  EXPECT_NEAR(t1.arrival, 8.0, 1e-9);
  EXPECT_NEAR(t2.arrival, 8.0, 1e-9);
  // The downlink's transfers genuinely overlap.
  const auto& d1 = t1.profiles.back();
  const auto& d2 = t2.profiles.back();
  const double overlap = std::min(d1.finish_time(), d2.finish_time()) -
                         std::max(d1.start_time(), d2.start_time());
  EXPECT_NEAR(overlap, 8.0, 1e-9);

  // Contrast: the exclusive model must serialise the downlink.
  ExclusiveNetworkState exclusive(topo, 2);
  const double e1 =
      exclusive.commit_edge_basic(dag::EdgeId(0u), {up1, down_out}, 0.0,
                                  8.0);
  const double e2 =
      exclusive.commit_edge_basic(dag::EdgeId(1u), {up2, down_out}, 0.0,
                                  8.0);
  EXPECT_NEAR(e1, 8.0, 1e-9);
  EXPECT_GT(e2, 8.0 + 1.0);  // queued behind e1 on the shared downlink
}

TEST(Scenario, ClassicUnderestimatesThisExactInstance) {
  // Four producers all ship cost-10 messages through the hub to one
  // consumer: the idealised model charges each message independently
  // (arrival = 3 + 10), but the shared consumer-side link serialises
  // them in reality.
  dag::TaskGraphBuilder builder;
  std::vector<dag::TaskId> producers;
  for (int i = 0; i < 4; ++i) {
    producers.push_back(builder.add_task(3.0));
  }
  const dag::TaskId sink = builder.add_task(1.0, "sink");
  for (dag::TaskId p : producers) {
    builder.add_edge(p, sink, 10.0);
  }
  const dag::TaskGraph graph = builder.build();

  Star3 net;
  const Schedule ba = SpecScheduler(ba_spec()).schedule(graph, net.topo);
  validate_or_throw(graph, net.topo, ba);
  // 4 producers on 3 processors: at least two messages are remote and
  // share the sink's inbound link, so the sink cannot start before
  // ready(6) + 2 transfers(20) on that link... unless it sits with two
  // producers. Weak but instance-true bound:
  EXPECT_GE(ba.makespan(), 6.0 + 20.0 - 1e-9);
}

TEST(Scenario, HeterogeneousSpeedScalesDurations) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId t = builder.add_task(30.0);
  const dag::TaskGraph graph = builder.build();
  net::Topology topo;
  const net::NodeId slow = topo.add_processor(2.0);
  const net::NodeId fast = topo.add_processor(5.0);
  topo.add_duplex_link(slow, fast, 1.0);
  for (const auto& schedule :
       {SpecScheduler(ba_spec()).schedule(graph, topo),
        SpecScheduler(oihsa_spec()).schedule(graph, topo),
        SpecScheduler(bbsa_spec()).schedule(graph, topo)}) {
    EXPECT_EQ(schedule.task(t).processor, fast);
    EXPECT_DOUBLE_EQ(schedule.makespan(), 6.0);
  }
}

}  // namespace
}  // namespace edgesched::sched
