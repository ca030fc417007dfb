#include "net/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/builders.hpp"

namespace edgesched::net {
namespace {

std::string text_of(const Topology& topology) {
  std::ostringstream os;
  write_text(os, topology);
  return os.str();
}

Topology parse_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

/// The round trip keeps every link's id, endpoints, speed and domain,
/// the domain count and the fingerprint.
void expect_round_trip(const Topology& t) {
  const Topology parsed = parse_text(text_of(t));
  ASSERT_EQ(parsed.num_nodes(), t.num_nodes());
  ASSERT_EQ(parsed.num_links(), t.num_links());
  for (LinkId l : t.all_links()) {
    EXPECT_EQ(parsed.link(l).src, t.link(l).src) << "link " << l.value();
    EXPECT_EQ(parsed.link(l).dst, t.link(l).dst) << "link " << l.value();
    EXPECT_EQ(parsed.link(l).speed, t.link(l).speed) << "link " << l.value();
    EXPECT_EQ(parsed.domain(l), t.domain(l)) << "link " << l.value();
  }
  EXPECT_EQ(parsed.num_domains(), t.num_domains());
  EXPECT_EQ(parsed.fingerprint(), t.fingerprint());
}

TEST(NetText, RoundTripsDuplexTopology) {
  Topology t("pair");
  const NodeId a = t.add_processor(2.0, "a");
  const NodeId s = t.add_switch("sw");
  const NodeId b = t.add_processor(3.0, "b");
  t.add_duplex_link(a, s, 4.0);
  t.add_duplex_link(s, b, 5.0);

  const Topology parsed = parse_text(text_of(t));
  EXPECT_EQ(parsed.name(), "pair");
  EXPECT_EQ(parsed.num_nodes(), 3u);
  EXPECT_EQ(parsed.num_processors(), 2u);
  EXPECT_EQ(parsed.num_links(), 4u);
  EXPECT_DOUBLE_EQ(parsed.processor_speed(NodeId(0u)), 2.0);
  EXPECT_FALSE(parsed.is_processor(NodeId(1u)));
  EXPECT_TRUE(parsed.processors_connected());
}

TEST(NetText, PreservesHalfDuplexSharing) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  t.add_bus({a, b}, 2.0);  // a half-duplex cable
  const Topology parsed = parse_text(text_of(t));
  ASSERT_EQ(parsed.num_links(), 2u);
  EXPECT_EQ(parsed.domain(LinkId(0u)), parsed.domain(LinkId(1u)));
}

TEST(NetText, PreservesBusSharing) {
  Topology t;
  std::vector<NodeId> members{t.add_processor(), t.add_processor(),
                              t.add_processor()};
  t.add_bus(members, 3.0);
  const Topology parsed = parse_text(text_of(t));
  EXPECT_EQ(parsed.num_links(), 6u);
  EXPECT_EQ(parsed.num_domains(), 1u);
}

TEST(NetText, RoundTripsGeneratedWan) {
  Rng rng(9);
  RandomWanParams params;
  params.num_processors = 12;
  const Topology t = random_wan(params, rng);
  const Topology parsed = parse_text(text_of(t));
  EXPECT_EQ(parsed.num_nodes(), t.num_nodes());
  EXPECT_EQ(parsed.num_links(), t.num_links());
  EXPECT_EQ(parsed.num_processors(), t.num_processors());
  EXPECT_TRUE(parsed.processors_connected());
}

TEST(NetText, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_text("processor x 1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("processor 1 1\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("wat 0\n"), std::invalid_argument);
  // One domain is one medium with one speed.
  EXPECT_THROW((void)parse_text("processor 0 1\nprocessor 1 1\n"
                                "link 0 1 1 3\nlink 1 0 2 3\n"),
               std::invalid_argument);
}

TEST(NetText, RoundTripsEveryBuilderFabric) {
  const SpeedConfig speeds{.heterogeneous = true};
  Rng rng(5);
  RandomWanParams wan;
  wan.num_processors = 20;
  wan.speeds = speeds;
  const std::vector<Topology> fabrics = {
      fully_connected(4, speeds, rng), switched_star(5, speeds, rng),
      ring(5, speeds, rng),            mesh2d(2, 3, speeds, rng),
      torus2d(3, 3, speeds, rng),      hypercube(3, speeds, rng),
      fat_tree(3, 2, speeds, rng),     bus(4, speeds, rng),
      dragonfly(2, 2, 1, speeds, rng), switch_tree(2, 2, 2, speeds, rng),
      random_wan(wan, rng)};
  for (const Topology& t : fabrics) {
    SCOPED_TRACE(t.name());
    expect_round_trip(t);
  }
}

TEST(NetText, RoundTripsPartialBus) {
  // A bus some of whose links are gone, as in the executor's surviving
  // topology: three links of one domain, not the full member product.
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const NodeId c = t.add_processor();
  const DomainId shared = t.add_domain();
  t.add_link(a, b, 2.0, shared);
  t.add_link(b, c, 2.0, shared);
  t.add_link(c, a, 2.0, shared);
  expect_round_trip(t);
}

TEST(NetText, RoundTripsSharedNonReversePair) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const NodeId c = t.add_processor();
  t.add_link(a, b, 1.0);
  const DomainId shared = t.add_domain();
  t.add_link(a, c, 1.0 / 3.0, shared);
  t.add_link(b, c, 1.0 / 3.0, shared);
  expect_round_trip(t);
}

TEST(NetText, KeepsFileOrderAcrossTaggedAndUntaggedLinks) {
  const Topology parsed = parse_text(
      "processor 0 1\nprocessor 1 1\nprocessor 2 1\n"
      "link 0 1 1\nlink 1 0 1 7\nlink 1 2 2\nlink 2 1 1 7\n"
      "link 0 2 3 9\n");
  ASSERT_EQ(parsed.num_links(), 5u);
  EXPECT_EQ(parsed.link(LinkId(0u)).src, NodeId(0u));
  EXPECT_EQ(parsed.link(LinkId(1u)).src, NodeId(1u));
  EXPECT_EQ(parsed.link(LinkId(2u)).dst, NodeId(2u));
  EXPECT_DOUBLE_EQ(parsed.link(LinkId(4u)).speed, 3.0);
  // Domains are numbered in first-seen order; untagged links get their
  // own, tagged ones share by tag.
  EXPECT_EQ(parsed.num_domains(), 4u);
  EXPECT_EQ(parsed.domain(LinkId(0u)), DomainId(0u));
  EXPECT_EQ(parsed.domain(LinkId(1u)), DomainId(1u));
  EXPECT_EQ(parsed.domain(LinkId(2u)), DomainId(2u));
  EXPECT_EQ(parsed.domain(LinkId(3u)), DomainId(1u));
  EXPECT_EQ(parsed.domain(LinkId(4u)), DomainId(3u));
  expect_round_trip(parsed);
}

}  // namespace
}  // namespace edgesched::net
