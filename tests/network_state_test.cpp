#include "sched/network_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "net/builders.hpp"

namespace edgesched::sched {
namespace {

/// p0 -L0-> sw -L2-> p1 (plus reverse links); all speeds 1.
struct Fixture {
  net::Topology topo;
  net::NodeId p0, p1, sw;
  net::Route route;

  Fixture() {
    p0 = topo.add_processor(1.0, "p0");
    p1 = topo.add_processor(1.0, "p1");
    sw = topo.add_switch("sw");
    const auto [up, down] = topo.add_duplex_link(p0, sw, 1.0);
    const auto [out, back] = topo.add_duplex_link(sw, p1, 1.0);
    (void)down;
    (void)back;
    route = {up, out};
  }
};

TEST(ExclusiveNetworkState, BasicCommitRecordsOccupations) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  const double arrival =
      state.commit_edge_basic(dag::EdgeId(0u), f.route, 2.0, 6.0);
  EXPECT_DOUBLE_EQ(arrival, 8.0);  // cut-through: both hops [2, 8]
  const auto record = state.record(dag::EdgeId(0u));
  ASSERT_FALSE(record.empty());
  ASSERT_EQ(record.size(), 2u);
  EXPECT_DOUBLE_EQ(record[0].start, 2.0);
  EXPECT_DOUBLE_EQ(record[0].finish, 8.0);
  EXPECT_DOUBLE_EQ(record[1].finish, 8.0);
  EXPECT_DOUBLE_EQ(state.total_busy_time(), 12.0);
}

TEST(ExclusiveNetworkState, SecondEdgeQueuesBehindFirst) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  (void)state.commit_edge_basic(dag::EdgeId(0u), f.route, 0.0, 4.0);
  const double arrival =
      state.commit_edge_basic(dag::EdgeId(1u), f.route, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(arrival, 8.0);  // waits for the first transfer
}

TEST(ExclusiveNetworkState, UncommitRestoresTimelines) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  (void)state.commit_edge_basic(dag::EdgeId(0u), f.route, 0.0, 4.0);
  const double before = state.total_busy_time();
  (void)state.commit_edge_basic(dag::EdgeId(1u), f.route, 0.0, 4.0);
  state.uncommit_edge(dag::EdgeId(1u));
  EXPECT_DOUBLE_EQ(state.total_busy_time(), before);
  EXPECT_TRUE(state.record(dag::EdgeId(1u)).empty());
  // Re-commit lands exactly where the uncommitted trial did.
  const double arrival =
      state.commit_edge_basic(dag::EdgeId(1u), f.route, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(arrival, 8.0);
}

TEST(ExclusiveNetworkState, DoubleCommitIsRejected) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  (void)state.commit_edge_basic(dag::EdgeId(0u), f.route, 0.0, 4.0);
  EXPECT_THROW(
      (void)state.commit_edge_basic(dag::EdgeId(0u), f.route, 0.0, 4.0),
      InternalError);
}

TEST(ExclusiveNetworkState, ProbeDoesNotMutate) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  const timeline::Placement p =
      state.probe_link(f.route[0], 1.0, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(p.start, 1.0);
  EXPECT_DOUBLE_EQ(p.finish, 5.0);
  EXPECT_DOUBLE_EQ(state.total_busy_time(), 0.0);
}

TEST(ExclusiveNetworkState, OptimalCommitDefersEarlierEdge) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  // Edge 0 crosses both hops starting at 0 with duration 2: hop 1 slot
  // [0, 2], hop 2 slot [0, 2]... cut-through gives hop2 t_es = 0 and
  // finish 2; its deferral slack on hop 1 is 0 minus... the last hop has
  // dt = 0, the first hop dt = min(es2 - es1, f2 - f1) = 0 here. Use a
  // route where the second hop waits, creating slack on the first.
  net::Topology topo;
  const net::NodeId a = topo.add_processor();
  const net::NodeId b = topo.add_processor();
  const net::NodeId c = topo.add_processor();
  const net::NodeId s = topo.add_switch();
  const net::LinkId a_s = topo.add_duplex_link(a, s, 1.0).first;
  const net::LinkId s_b = topo.add_duplex_link(s, b, 1.0).first;
  const net::LinkId s_c = topo.add_duplex_link(s, c, 1.0).first;
  (void)s_c;

  ExclusiveNetworkState st(topo, 4);
  // Block the second hop s->b during [0, 10] with a direct transfer from
  // another edge (route of length 1 starting at the switch is not
  // possible; use an edge b<-s? Instead occupy s_b via an a->b edge that
  // ships early).
  (void)st.commit_edge_basic(dag::EdgeId(0u), {s_b}, 0.0, 10.0);
  // Edge 1 a->b: hop a_s could run [0, 3], but hop s_b is busy until 10,
  // so its slot is [10, 13]; under link causality hop a_s keeps slack.
  (void)st.commit_edge_optimal(dag::EdgeId(1u), {a_s, s_b}, 0.0, 3.0);
  const auto r1 = st.record(dag::EdgeId(1u));
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_DOUBLE_EQ(r1[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r1[1].start, 10.0);
  EXPECT_DOUBLE_EQ(r1[1].finish, 13.0);

  // Edge 2 also needs a_s at time 0 for 4 units: optimal insertion may
  // defer edge 1's first-hop slot (slack towards its waiting second hop)
  // and start at 0.
  (void)st.commit_edge_optimal(dag::EdgeId(2u), {a_s}, 0.0, 4.0);
  const auto r2 = st.record(dag::EdgeId(2u));
  EXPECT_DOUBLE_EQ(r2[0].start, 0.0);
  // Edge 1's first hop slid but its second hop (and thus arrival) kept.
  const auto r1_after = st.record(dag::EdgeId(1u));
  EXPECT_GE(r1_after[0].start, 4.0 - 1e-9);
  EXPECT_DOUBLE_EQ(r1_after[1].finish, 13.0);
}

TEST(ExclusiveNetworkState, CommitPacketStoreAndForward) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 4);
  const double arrival =
      state.commit_packets(dag::EdgeId(0u), f.route, 1.0, 2.0, 2);
  EXPECT_DOUBLE_EQ(arrival, 7.0);  // hop1 [3,5], hop2 [5,7]: pipelined
  const auto record = state.record(dag::EdgeId(0u));
  ASSERT_EQ(record.size(), 4u);
  EXPECT_DOUBLE_EQ(record[1].finish, 5.0);  // [1,3] then [3,5]
}

// Each packet's first-fit walk starts at the previous packet's slot on
// the same hop. The placements must equal packet-by-packet first fit
// from the head of every timeline, and the gaps walked must stay O(1)
// per packet and hop: from the ship time, packet k would step over all k
// earlier back-to-back packets of its edge.
TEST(ExclusiveNetworkState, PacketWalksStartAtThePreviousPacket) {
  Fixture f;
  ExclusiveNetworkState state(f.topo, 8);
  // Other edges' slots, so the packets flow around gaps of every size.
  (void)state.commit_edge_basic(dag::EdgeId(1u), f.route, 40.0, 10.0);
  (void)state.commit_edge_basic(dag::EdgeId(2u), {f.route[0]}, 95.0, 1.5);
  (void)state.commit_edge_basic(dag::EdgeId(3u), {f.route[1]}, 97.0, 0.5);
  (void)state.commit_edge_basic(dag::EdgeId(4u), f.route, 300.0, 2.5);
  std::vector<timeline::LinkTimeline> oracle;
  std::uint64_t steps_before = 0;
  for (const net::LinkId link : f.route) {
    oracle.push_back(state.timeline(link));
    steps_before += state.timeline(link).probe_stats().probe_gap_steps;
  }

  constexpr std::size_t kPackets = 4096;
  const double arrival =
      state.commit_packets(dag::EdgeId(0u), f.route, 1.0, 0.75, kPackets);

  std::vector<LinkOccupation> expected;
  double latest = 1.0;
  for (std::size_t p = 0; p < kPackets; ++p) {
    double at = 1.0;
    for (std::size_t h = 0; h < f.route.size(); ++h) {
      const timeline::Placement placement =
          oracle[h].probe_basic_linear(at, 0.0, 0.75);
      oracle[h].commit(placement, dag::EdgeId(0u));
      expected.push_back(LinkOccupation{f.route[h], placement.earliest_start,
                                        placement.start, placement.finish});
      at = placement.finish;
    }
    latest = std::max(latest, at);
  }
  EXPECT_EQ(arrival, latest);
  const auto record = state.record(dag::EdgeId(0u));
  ASSERT_EQ(record.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(record[i].link, expected[i].link) << i;
    ASSERT_EQ(record[i].earliest_start,
              expected[i].earliest_start)
        << i;
    ASSERT_EQ(record[i].start, expected[i].start) << i;
    ASSERT_EQ(record[i].finish, expected[i].finish) << i;
  }

  std::uint64_t steps_after = 0;
  for (const net::LinkId link : f.route) {
    steps_after += state.timeline(link).probe_stats().probe_gap_steps;
  }
  const double steps_per_probe =
      static_cast<double>(steps_after - steps_before) /
      static_cast<double>(kPackets * f.route.size());
  EXPECT_LE(steps_per_probe, 3.0);
}

TEST(BandwidthNetworkState, CommitSharesAndProbes) {
  Fixture f;
  BandwidthNetworkState state(f.topo);
  EXPECT_DOUBLE_EQ(state.probe(f.route[0], 0.0, 0.0, 4.0).finish, 4.0);
  const auto transfer = state.commit_edge(f.route, 0.0, 4.0);
  EXPECT_DOUBLE_EQ(transfer.arrival, 4.0);
  // The link is now saturated during [0, 4]; a new probe sees that.
  EXPECT_DOUBLE_EQ(state.probe(f.route[0], 1.0, 0.0, 4.0).virtual_start,
                   4.0);
  EXPECT_DOUBLE_EQ(state.probe(f.route[0], 0.0, 0.0, 4.0).finish, 8.0);
}

TEST(Models, IdleRouteArrivalsMatchClosedForms) {
  // With no contention the two communication models have closed forms:
  //   fluid:     ready + v / min(speed)           (true cut-through)
  //   exclusive: ready + v·(1/s1 + Σ max(0, 1/s_k − 1/s_{k−1}))
  // The exclusive virtual-start slots pay for every slow→fast→slow speed
  // alternation (the fast middle hop's slot only opens late), so fluid
  // never arrives later than exclusive.
  Rng rng(2006);
  for (int round = 0; round < 60; ++round) {
    const std::size_t hops =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    net::Topology topo;
    net::NodeId at = topo.add_processor();
    net::Route route;
    std::vector<double> speeds;
    for (std::size_t h = 0; h < hops; ++h) {
      const net::NodeId next = (h + 1 == hops)
                                   ? topo.add_processor()
                                   : topo.add_switch();
      speeds.push_back(static_cast<double>(rng.uniform_int(1, 10)));
      route.push_back(
          topo.add_duplex_link(at, next, speeds.back()).first);
      at = next;
    }
    const double ready = rng.uniform_real(0.0, 100.0);
    const double volume = rng.uniform_real(0.5, 500.0);

    ExclusiveNetworkState exclusive(topo, 1);
    const double arrival_exclusive = exclusive.commit_edge_basic(
        dag::EdgeId(0u), route, ready, volume);

    BandwidthNetworkState fluid(topo);
    const double arrival_fluid =
        fluid.commit_edge(route, ready, volume).arrival;

    const double min_speed =
        *std::min_element(speeds.begin(), speeds.end());
    double exclusive_time = volume / speeds.front();
    for (std::size_t k = 1; k < speeds.size(); ++k) {
      exclusive_time +=
          std::max(0.0, volume / speeds[k] - volume / speeds[k - 1]);
    }
    EXPECT_NEAR(arrival_exclusive, ready + exclusive_time,
                1e-6 * (ready + exclusive_time))
        << "round " << round;
    EXPECT_NEAR(arrival_fluid, ready + volume / min_speed,
                1e-5 * (ready + volume / min_speed))
        << "round " << round;
    EXPECT_LE(arrival_fluid, arrival_exclusive + 1e-6)
        << "round " << round;
  }
}

TEST(MachineState, AppendAndInsertionPolicies) {
  Fixture f;
  MachineState machines(f.topo);
  machines.commit(f.p0, dag::TaskId(0u), 0.0, 2.0);
  machines.commit(f.p0, dag::TaskId(1u), 10.0, 2.0);
  EXPECT_DOUBLE_EQ(machines.finish_time(f.p0), 12.0);
  EXPECT_DOUBLE_EQ(machines.append_start(f.p0, 1.0), 12.0);
  EXPECT_DOUBLE_EQ(machines.earliest_start(f.p0, 1.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(machines.start_for(f.p0, 1.0, 3.0, true), 2.0);
  EXPECT_DOUBLE_EQ(machines.start_for(f.p0, 1.0, 3.0, false), 12.0);
  EXPECT_DOUBLE_EQ(machines.finish_time(f.p1), 0.0);
}

}  // namespace
}  // namespace edgesched::sched
