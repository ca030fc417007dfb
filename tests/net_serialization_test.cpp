#include "net/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

std::string dot_of(const Topology& topology) {
  std::ostringstream os;
  write_dot(os, topology);
  return os.str();
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
  t.add_half_duplex_link(a, b, 2.0);
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
}

TEST(NetDot, ContainsShapes) {
  Topology t("dotnet");
  const NodeId p = t.add_processor(1.0, "cpu0");
  const NodeId s = t.add_switch("sw0");
  t.add_link(p, s, 2.0);
  const std::string dot = dot_of(t);
  EXPECT_NE(dot.find("digraph \"dotnet\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

}  // namespace
}  // namespace edgesched::net
