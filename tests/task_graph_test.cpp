#include "dag/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace edgesched::dag {
namespace {

TaskGraphBuilder diamond_builder() {
  TaskGraphBuilder g("diamond");
  const TaskId a = g.add_task(2.0, "a");
  const TaskId b = g.add_task(3.0, "b");
  const TaskId c = g.add_task(4.0, "c");
  const TaskId d = g.add_task(5.0, "d");
  g.add_edge(a, b, 1.0);
  g.add_edge(a, c, 2.0);
  g.add_edge(b, d, 3.0);
  g.add_edge(c, d, 4.0);
  return g;
}

TaskGraph diamond_graph() { return diamond_builder().build(); }

TEST(TaskGraph, StartsEmpty) {
  TaskGraph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_tasks(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(TaskGraph, AddTaskAssignsDenseIds) {
  TaskGraphBuilder g;
  EXPECT_EQ(g.add_task(1.0).value(), 0u);
  EXPECT_EQ(g.add_task(2.0).value(), 1u);
  EXPECT_EQ(g.add_task(3.0).value(), 2u);
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_EQ(g.build().num_tasks(), 3u);
  EXPECT_EQ(g.num_tasks(), 0u);  // build() leaves the builder empty
}

TEST(TaskGraph, TaskNamesDefaultAndExplicit) {
  TaskGraphBuilder b;
  const TaskId anon = b.add_task(1.0);
  const TaskId named = b.add_task(1.0, "compute");
  const TaskId spelled = b.add_task(1.0, "n2");  // its own default
  const TaskId late = b.add_task(1.0);
  const TaskGraph g = b.build();
  EXPECT_EQ(g.name(anon), "n0");
  EXPECT_EQ(g.name(named), "compute");
  EXPECT_EQ(g.name(spelled), "n2");
  EXPECT_EQ(g.name(late), "n3");
}

TEST(TaskGraph, RejectsNegativeWeight) {
  TaskGraphBuilder g;
  EXPECT_THROW((void)g.add_task(-1.0), std::invalid_argument);
  // Non-finite weights too: NaN slips past `weight < 0` comparisons.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)g.add_task(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.num_tasks(), 0u);
}

TEST(TaskGraph, RejectsBadEdges) {
  TaskGraphBuilder g;
  const TaskId a = g.add_task(1.0);
  const TaskId b = g.add_task(1.0);
  EXPECT_THROW((void)g.add_edge(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(a, TaskId(9u), 1.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_edge(a, b, -1.0), std::invalid_argument);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)g.add_edge(a, b, bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.num_edges(), 0u);
  (void)g.add_edge(a, b, 1.0);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  try {
    (void)g.add_edge(a, b, 2.0);
    ADD_FAILURE() << "duplicate edge accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "TaskGraph::add_edge: duplicate edge");
  }
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
}

TEST(TaskGraph, AdjacencyIsSymmetric) {
  const TaskGraph g = diamond_graph();
  const TaskId a(0u), b(1u), c(2u), d(3u);
  EXPECT_EQ(g.successors(a), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(g.predecessors(d), (std::vector<TaskId>{b, c}));
  EXPECT_EQ(g.in_edges(a).size(), 0u);
  EXPECT_EQ(g.out_edges(d).size(), 0u);
}

TEST(TaskGraph, EdgeEndpointsAndCosts) {
  const TaskGraph g = diamond_graph();
  const Edge& e = g.edge(EdgeId(3u));
  EXPECT_EQ(e.src, TaskId(2u));
  EXPECT_EQ(e.dst, TaskId(3u));
  EXPECT_DOUBLE_EQ(e.cost, 4.0);
}

TEST(TaskGraph, SetCostRescales) {
  TaskGraph g = diamond_graph();
  g.set_cost(EdgeId(0u), 10.0);
  EXPECT_DOUBLE_EQ(g.cost(EdgeId(0u)), 10.0);
  EXPECT_THROW(g.set_cost(EdgeId(0u), -1.0), std::invalid_argument);
  EXPECT_THROW(g.set_cost(EdgeId(0u), std::nan("")), std::invalid_argument);
  EXPECT_THROW(g.set_weight(TaskId(0u), std::nan("")),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(g.cost(EdgeId(0u)), 10.0);
}

TEST(TaskGraph, EntryAndExitTasks) {
  const TaskGraph g = diamond_graph();
  EXPECT_EQ(g.entry_tasks(), std::vector<TaskId>{TaskId(0u)});
  EXPECT_EQ(g.exit_tasks(), std::vector<TaskId>{TaskId(3u)});
}

TEST(TaskGraph, AcyclicDetection) {
  EXPECT_EQ(diamond_builder().build().num_edges(), 4u);
  TaskGraphBuilder g = diamond_builder();
  g.add_edge(TaskId(3u), TaskId(0u), 1.0);  // close the cycle
  try {
    (void)g.build();
    ADD_FAILURE() << "cyclic graph built";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "TaskGraph::build: graph contains a cycle");
  }
  EXPECT_EQ(g.num_tasks(), 0u);  // the failed build freed the builder too
}

TEST(TaskGraph, TopologicalOrderRespectsPrecedence) {
  const TaskGraph g = diamond_graph();
  const std::vector<TaskId> order = g.topological_order();
  ASSERT_EQ(order.size(), g.num_tasks());
  std::vector<std::size_t> position(g.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i].index()] = i;
  }
  for (EdgeId e : g.all_edges()) {
    EXPECT_LT(position[g.edge(e).src.index()],
              position[g.edge(e).dst.index()]);
  }
}

TEST(TaskGraph, TopologicalOrderIsDeterministic) {
  const TaskGraph g = diamond_graph();
  EXPECT_EQ(g.topological_order(), g.topological_order());
}

TEST(TaskGraph, Totals) {
  const TaskGraph g = diamond_graph();
  EXPECT_DOUBLE_EQ(g.total_computation(), 14.0);
  EXPECT_DOUBLE_EQ(g.total_communication(), 10.0);
}

TEST(TaskGraph, IndependentTasksBothEntryAndExit) {
  TaskGraphBuilder b;
  (void)b.add_task(1.0);
  (void)b.add_task(1.0);
  const TaskGraph g = b.build();
  EXPECT_EQ(g.entry_tasks().size(), 2u);
  EXPECT_EQ(g.exit_tasks().size(), 2u);
  EXPECT_EQ(g.topological_order().size(), 2u);
}

TEST(StrongId, InvalidByDefault) {
  TaskId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(TaskId(0u).valid());
}

TEST(StrongId, OrdersAndHashesLikeUnderlying) {
  EXPECT_LT(TaskId(1u), TaskId(2u));
  EXPECT_EQ(std::hash<TaskId>{}(TaskId(5u)), std::hash<TaskId>{}(TaskId(5u)));
}

}  // namespace
}  // namespace edgesched::dag
