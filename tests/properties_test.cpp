#include "dag/properties.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/generators.hpp"

namespace edgesched::dag {
namespace {

TaskGraph diamond_graph() {
  TaskGraphBuilder builder;
  const TaskId a = builder.add_task(2.0);
  const TaskId b = builder.add_task(3.0);
  const TaskId c = builder.add_task(4.0);
  const TaskId d = builder.add_task(5.0);
  builder.add_edge(a, b, 1.0);
  builder.add_edge(a, c, 2.0);
  builder.add_edge(b, d, 3.0);
  builder.add_edge(c, d, 4.0);
  return builder.build();
}

TEST(BottomLevels, HandComputedDiamond) {
  const TaskGraph g = diamond_graph();
  const std::vector<double> bl = bottom_levels(g);
  // bl(d) = 5; bl(c) = 4 + 4 + 5 = 13; bl(b) = 3 + 3 + 5 = 11;
  // bl(a) = 2 + max(1 + 11, 2 + 13) = 17.
  EXPECT_DOUBLE_EQ(bl[3], 5.0);
  EXPECT_DOUBLE_EQ(bl[2], 13.0);
  EXPECT_DOUBLE_EQ(bl[1], 11.0);
  EXPECT_DOUBLE_EQ(bl[0], 17.0);
}

TEST(BottomLevels, ComputationOnlyIgnoresEdges) {
  const TaskGraph g = diamond_graph();
  const std::vector<double> bl = bottom_levels_computation_only(g);
  EXPECT_DOUBLE_EQ(bl[0], 2.0 + 4.0 + 5.0);
}

TEST(TopLevels, HandComputedDiamond) {
  const TaskGraph g = diamond_graph();
  const std::vector<double> tl = top_levels(g);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(tl[2], 2.0 + 2.0);
  // tl(d) = max(tl(b)+3+3, tl(c)+4+4) = max(9, 12) = 12.
  EXPECT_DOUBLE_EQ(tl[3], 12.0);
}

TEST(TopPlusBottom, ConstantOnCriticalPath) {
  const TaskGraph g = diamond_graph();
  const std::vector<double> bl = bottom_levels(g);
  const std::vector<double> tl = top_levels(g);
  const double cp = critical_path_length(g);
  // a and c and d are on the critical path a->c->d.
  EXPECT_DOUBLE_EQ(tl[0] + bl[0], cp);
  EXPECT_DOUBLE_EQ(tl[2] + bl[2], cp);
  EXPECT_DOUBLE_EQ(tl[3] + bl[3], cp);
  EXPECT_LT(tl[1] + bl[1], cp);
}

TEST(CriticalPath, LengthAndMembers) {
  const TaskGraph g = diamond_graph();
  EXPECT_DOUBLE_EQ(critical_path_length(g), 17.0);
  const std::vector<TaskId> path = critical_path(g);
  EXPECT_EQ(path,
            (std::vector<TaskId>{TaskId(0u), TaskId(2u), TaskId(3u)}));
}

TEST(CriticalPath, ChainIsWholeGraph) {
  const TaskGraph g = chain(5, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(critical_path_length(g), 5 * 2.0 + 4 * 3.0);
  EXPECT_EQ(critical_path(g).size(), 5u);
}

TEST(CriticalPath, EmptyGraph) {
  const TaskGraph g;
  EXPECT_DOUBLE_EQ(critical_path_length(g), 0.0);
  EXPECT_TRUE(critical_path(g).empty());
}

TEST(Ccr, MatchesDefinition) {
  const TaskGraph g = diamond_graph();
  // mean comm = 10/4, mean comp = 14/4.
  EXPECT_DOUBLE_EQ(communication_computation_ratio(g), 10.0 / 14.0);
}

TEST(Ccr, ZeroWithoutEdges) {
  TaskGraphBuilder builder;
  (void)builder.add_task(1.0);
  const TaskGraph g = builder.build();
  EXPECT_DOUBLE_EQ(communication_computation_ratio(g), 0.0);
}

TEST(RescaleToCcr, HitsTarget) {
  TaskGraph g = diamond_graph();
  for (double target : {0.1, 1.0, 5.0, 10.0}) {
    rescale_to_ccr(g, target);
    EXPECT_NEAR(communication_computation_ratio(g), target, 1e-12);
  }
}

TEST(RescaleToCcr, PreservesRelativeCosts) {
  TaskGraph g = diamond_graph();
  rescale_to_ccr(g, 2.0);
  EXPECT_NEAR(g.cost(EdgeId(1u)) / g.cost(EdgeId(0u)), 2.0, 1e-12);
}

TEST(RescaleToCcr, RejectsBadInput) {
  TaskGraph g = diamond_graph();
  EXPECT_THROW(rescale_to_ccr(g, 0.0), std::invalid_argument);
  TaskGraphBuilder edgeless_builder;
  (void)edgeless_builder.add_task(1.0);
  TaskGraph edgeless = edgeless_builder.build();
  EXPECT_THROW(rescale_to_ccr(edgeless, 1.0), std::invalid_argument);
}

TEST(PrecedenceLevels, Diamond) {
  const TaskGraph g = diamond_graph();
  const std::vector<std::size_t> levels = precedence_levels(g);
  EXPECT_EQ(levels, (std::vector<std::size_t>{0, 1, 1, 2}));
}

TEST(Shape, Diamond) {
  const GraphShape s = shape(diamond_graph());
  EXPECT_EQ(s.num_tasks, 4u);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_EQ(s.max_width, 2u);
  EXPECT_EQ(s.num_entries, 1u);
  EXPECT_EQ(s.num_exits, 1u);
  EXPECT_DOUBLE_EQ(s.avg_out_degree, 1.0);
}

TEST(Shape, EmptyGraph) {
  const GraphShape s = shape(TaskGraph{});
  EXPECT_EQ(s.num_tasks, 0u);
  EXPECT_EQ(s.depth, 0u);
}

TEST(BottomLevels, MaxEqualsTopLevelPlusWeightAtExits) {
  const TaskGraph g = diamond_graph();
  const std::vector<double> bl = bottom_levels(g);
  const double cp = *std::max_element(bl.begin(), bl.end());
  EXPECT_DOUBLE_EQ(cp, critical_path_length(g));
}

}  // namespace
}  // namespace edgesched::dag
