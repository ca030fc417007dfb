#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace edgesched::net {
namespace {

TEST(Topology, AddProcessorAndSwitch) {
  Topology t;
  const NodeId p = t.add_processor(2.0, "cpu");
  const NodeId s = t.add_switch();
  EXPECT_TRUE(t.is_processor(p));
  EXPECT_FALSE(t.is_processor(s));
  EXPECT_DOUBLE_EQ(t.processor_speed(p), 2.0);
  EXPECT_THROW((void)t.processor_speed(s), std::invalid_argument);
  EXPECT_EQ(t.num_processors(), 1u);
  EXPECT_EQ(t.node(p).name, "cpu");
  EXPECT_EQ(t.node(s).name, "S1");
}

TEST(Topology, RejectsBadInputs) {
  Topology t;
  const NodeId p = t.add_processor();
  EXPECT_THROW((void)t.add_processor(0.0), std::invalid_argument);
  EXPECT_THROW((void)t.add_link(p, p, 1.0), std::invalid_argument);
  EXPECT_THROW((void)t.add_link(p, NodeId(7u), 1.0), std::invalid_argument);
  const NodeId q = t.add_processor();
  EXPECT_THROW((void)t.add_link(p, q, 0.0), std::invalid_argument);
}

// NaN passes a `speed <= 0.0` check and would make every comparison of
// the routing search false; infinities break the per-unit 1/s(L) costs.
TEST(Topology, RejectsNonFiniteSpeeds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Topology t;
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW((void)t.add_processor(bad), std::invalid_argument);
  }
  const NodeId p = t.add_processor();
  const NodeId q = t.add_processor();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW((void)t.add_link(p, q, bad), std::invalid_argument);
    EXPECT_THROW((void)t.add_link(p, q, bad, t.add_domain()),
                 std::invalid_argument);
    EXPECT_THROW((void)t.add_duplex_link(p, q, bad), std::invalid_argument);
    EXPECT_THROW((void)t.add_bus({p, q}, bad), std::invalid_argument);
  }
  EXPECT_EQ(t.num_processors(), 2u);
  EXPECT_EQ(t.num_links(), 0u);
}

TEST(Topology, DirectedLinkHasOwnDomain) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const LinkId ab = t.add_link(a, b, 3.0);
  const LinkId ba = t.add_link(b, a, 3.0);
  EXPECT_NE(t.domain(ab), t.domain(ba));
  EXPECT_DOUBLE_EQ(t.link_speed(ab), 3.0);
  EXPECT_EQ(t.link(ab).src, a);
  EXPECT_EQ(t.link(ab).dst, b);
  EXPECT_EQ(t.num_domains(), 2u);
}

TEST(Topology, DuplexLinkUsesTwoDomains) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const auto [ab, ba] = t.add_duplex_link(a, b);
  EXPECT_NE(t.domain(ab), t.domain(ba));
}

TEST(Topology, HalfDuplexSharesOneDomain) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  // A half-duplex cable is a two-member bus.
  const DomainId cable = t.add_bus({a, b});
  ASSERT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.link(LinkId(0u)).src, a);
  EXPECT_EQ(t.link(LinkId(1u)).src, b);
  EXPECT_EQ(t.domain(LinkId(0u)), cable);
  EXPECT_EQ(t.domain(LinkId(1u)), cable);
  EXPECT_EQ(t.num_domains(), 1u);
}

TEST(Topology, BusConnectsAllOrderedPairs) {
  Topology t;
  std::vector<NodeId> members{t.add_processor(), t.add_processor(),
                              t.add_processor()};
  const DomainId bus = t.add_bus(members, 4.0);
  EXPECT_EQ(t.num_links(), 6u);  // 3 * 2 ordered pairs
  for (LinkId l : t.all_links()) {
    EXPECT_EQ(t.domain(l), bus);
    EXPECT_DOUBLE_EQ(t.link_speed(l), 4.0);
  }
  EXPECT_EQ(t.num_domains(), 1u);
  EXPECT_THROW((void)t.add_bus({members[0]}, 1.0), std::invalid_argument);
}

TEST(Topology, AdjacencyListsAreConsistent) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const NodeId c = t.add_processor();
  const LinkId ab = t.add_link(a, b);
  const LinkId ac = t.add_link(a, c);
  const LinkId cb = t.add_link(c, b);
  EXPECT_EQ(t.out_links(a), (std::vector<LinkId>{ab, ac}));
  EXPECT_EQ(t.in_links(b), (std::vector<LinkId>{ab, cb}));
}

TEST(Topology, MeanLinkSpeed) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  (void)t.add_link(a, b, 2.0);
  (void)t.add_link(b, a, 4.0);
  EXPECT_DOUBLE_EQ(t.mean_link_speed(), 3.0);
  EXPECT_DOUBLE_EQ(Topology{}.mean_link_speed(), 0.0);
}

TEST(Topology, ProcessorsConnected) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  EXPECT_FALSE(t.processors_connected());
  t.add_duplex_link(a, b);
  EXPECT_TRUE(t.processors_connected());
}

TEST(Topology, ConnectivityIsDirected) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  (void)t.add_link(a, b);  // one-way only
  EXPECT_FALSE(t.processors_connected());
}

TEST(Topology, ProcessorWithOnlyInLinksIsNotConnected) {
  // a <-> z both ways, a -> m only: m is reachable from the first and the
  // last processor, yet reaches neither of them.
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId m = t.add_processor();
  const NodeId z = t.add_processor();
  t.add_duplex_link(a, z);
  (void)t.add_link(a, m);
  EXPECT_FALSE(t.processors_connected());
  (void)t.add_link(m, z);  // m now reaches a through z
  EXPECT_TRUE(t.processors_connected());
}

TEST(Topology, SingleProcessorTriviallyConnected) {
  Topology t;
  (void)t.add_processor();
  EXPECT_TRUE(t.processors_connected());
}

TEST(Topology, ValidateRoute) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId s = t.add_switch();
  const NodeId b = t.add_processor();
  const LinkId as = t.add_link(a, s);
  const LinkId sb = t.add_link(s, b);
  const LinkId ba = t.add_link(b, a);

  EXPECT_NO_THROW(t.validate_route(Route{as, sb}, a, b));
  EXPECT_NO_THROW(t.validate_route({}, a, a));
  EXPECT_THROW(t.validate_route({}, a, b), std::invalid_argument);
  EXPECT_THROW(t.validate_route(Route{as}, a, b), std::invalid_argument);
  EXPECT_THROW(t.validate_route(Route{sb, as}, a, b), std::invalid_argument);
  EXPECT_THROW(t.validate_route(Route{ba}, a, b), std::invalid_argument);
  EXPECT_THROW(t.validate_route(Route{as, sb}, a, a), std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::net
