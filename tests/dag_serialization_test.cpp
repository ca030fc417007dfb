#include "dag/serialization.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "dag/generators.hpp"

namespace edgesched::dag {
namespace {

std::string text_of(const TaskGraph& graph) {
  std::ostringstream os;
  write_text(os, graph);
  return os.str();
}

TaskGraph parse_text(const std::string& text) {
  std::istringstream is(text);
  return read_text(is);
}

TaskGraph parse_stg(const std::string& text, double default_comm_cost = 1.0) {
  std::istringstream is(text);
  return read_stg(is, default_comm_cost);
}

std::string dot_of(const TaskGraph& graph) {
  std::ostringstream os;
  write_dot(os, graph);
  return os.str();
}

TEST(DagText, RoundTripsSmallGraph) {
  TaskGraphBuilder builder("demo");
  const TaskId a = builder.add_task(2.5, "a");
  const TaskId b = builder.add_task(3.0, "b");
  builder.add_edge(a, b, 7.25);
  const TaskGraph g = builder.build();

  const TaskGraph parsed = parse_text(text_of(g));
  EXPECT_EQ(parsed.name(), "demo");
  ASSERT_EQ(parsed.num_tasks(), 2u);
  ASSERT_EQ(parsed.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(parsed.weight(TaskId(0u)), 2.5);
  EXPECT_EQ(parsed.name(TaskId(1u)), "b");
  EXPECT_DOUBLE_EQ(parsed.cost(EdgeId(0u)), 7.25);
}

TEST(DagText, RoundTripsGeneratedGraph) {
  Rng rng(5);
  LayeredDagParams params;
  params.num_tasks = 40;
  const TaskGraph g = random_layered(params, rng);
  const TaskGraph parsed = parse_text(text_of(g));
  ASSERT_EQ(parsed.num_tasks(), g.num_tasks());
  ASSERT_EQ(parsed.num_edges(), g.num_edges());
  for (EdgeId e : g.all_edges()) {
    EXPECT_EQ(parsed.edge(e).src, g.edge(e).src);
    EXPECT_EQ(parsed.edge(e).dst, g.edge(e).dst);
    EXPECT_DOUBLE_EQ(parsed.edge(e).cost, g.edge(e).cost);
  }
}

TEST(DagText, SkipsCommentsAndBlankLines) {
  const TaskGraph parsed = parse_text(
      "# a comment\n"
      "graph g\n"
      "\n"
      "task 0 1.5\n"
      "  # indented comment\n"
      "task 1 2.5 named\n"
      "edge 0 1 3\n");
  EXPECT_EQ(parsed.num_tasks(), 2u);
  EXPECT_EQ(parsed.name(TaskId(1u)), "named");
}

TEST(DagText, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_text("task zero 1.0\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("task 1 1.0\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("bogus 1 2\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("task 0 nan\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_text("task 0 1\ntask 1 1\nedge 0 1 inf\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_text("task 0 1\nedge 0 5 1\n"),
               std::invalid_argument);
}

TEST(DagText, RejectsCyclicInput) {
  EXPECT_THROW((void)parse_text("task 0 1\n"
                               "task 1 1\n"
                               "edge 0 1 1\n"
                               "edge 1 0 1\n"),
               std::invalid_argument);
}

TEST(Stg, ParsesKasaharaFormat) {
  // 2 real tasks; 0 and 3 are the zero-cost dummy entry/exit.
  const std::string text =
      "2\n"
      "0 0 0\n"
      "1 7 1 0\n"
      "2 4 1 1\n"
      "3 0 1 2\n";
  const TaskGraph g = parse_stg(text, 5.0);
  ASSERT_EQ(g.num_tasks(), 4u);
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.weight(TaskId(1u)), 7.0);
  EXPECT_DOUBLE_EQ(g.weight(TaskId(0u)), 0.0);
  EXPECT_DOUBLE_EQ(g.cost(EdgeId(0u)), 5.0);
  EXPECT_EQ(g.entry_tasks(), std::vector<TaskId>{TaskId(0u)});
  EXPECT_EQ(g.exit_tasks(), std::vector<TaskId>{TaskId(3u)});
}

TEST(Stg, RoundTrips) {
  const std::string text =
      "3\n"
      "0 0 0\n"
      "1 2 1 0\n"
      "2 3 1 0\n"
      "3 4 2 1 2\n"
      "4 0 1 3\n";
  const TaskGraph g = parse_stg(text, 1.0);
  std::ostringstream os;
  write_stg(os, g);
  const TaskGraph again = parse_stg(os.str(), 1.0);
  ASSERT_EQ(again.num_tasks(), g.num_tasks());
  ASSERT_EQ(again.num_edges(), g.num_edges());
  for (TaskId t : g.all_tasks()) {
    EXPECT_DOUBLE_EQ(again.weight(t), g.weight(t));
  }
}

TEST(Stg, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_stg(""), std::invalid_argument);
  EXPECT_THROW((void)parse_stg("2\n0 0 0\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_stg("1\n5 0 0\n0 0 0\n1 0 1 0\n"),
               std::invalid_argument);
  // A non-finite default edge cost is rejected, not stamped on edges.
  const std::string text = "1\n0 0 0\n1 7 1 0\n2 0 1 1\n";
  EXPECT_NO_THROW((void)parse_stg(text, 1.0));
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)parse_stg(text, bad), std::invalid_argument) << bad;
  }
}

TEST(Stg, WriteRejectsNonStgShapedGraphs) {
  // Two entries: not STG-shaped.
  TaskGraphBuilder builder;
  (void)builder.add_task(1.0);
  (void)builder.add_task(1.0);
  const TaskGraph g = builder.build();
  std::ostringstream os;
  EXPECT_THROW(write_stg(os, g), std::invalid_argument);
}

TEST(DagDot, ContainsNodesAndEdges) {
  TaskGraphBuilder builder("dotted");
  const TaskId a = builder.add_task(1.0, "first");
  const TaskId b = builder.add_task(2.0, "second");
  builder.add_edge(a, b, 3.0);
  const TaskGraph g = builder.build();
  const std::string dot = dot_of(g);
  EXPECT_NE(dot.find("digraph \"dotted\""), std::string::npos);
  EXPECT_NE(dot.find("first"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
}

}  // namespace
}  // namespace edgesched::dag
