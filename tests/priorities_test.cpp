#include "sched/priorities.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"

namespace edgesched::sched {
namespace {

dag::TaskGraph diamond_graph() {
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(2.0);
  const dag::TaskId b = builder.add_task(3.0);
  const dag::TaskId c = builder.add_task(4.0);
  const dag::TaskId d = builder.add_task(5.0);
  builder.add_edge(a, b, 1.0);
  builder.add_edge(a, c, 2.0);
  builder.add_edge(b, d, 3.0);
  builder.add_edge(c, d, 4.0);
  return builder.build();
}

TEST(Priorities, BottomLevelSchemeMatchesProperties) {
  const dag::TaskGraph g = diamond_graph();
  EXPECT_EQ(priorities(g, PriorityScheme::kBottomLevel),
            dag::bottom_levels(g));
  EXPECT_EQ(priorities(g, PriorityScheme::kBottomLevelComputationOnly),
            dag::bottom_levels_computation_only(g));
}

TEST(Priorities, TopPlusBottomIsSum) {
  const dag::TaskGraph g = diamond_graph();
  const auto combined =
      priorities(g, PriorityScheme::kTopLevelPlusBottomLevel);
  const auto bl = dag::bottom_levels(g);
  const auto tl = dag::top_levels(g);
  for (std::size_t i = 0; i < combined.size(); ++i) {
    EXPECT_DOUBLE_EQ(combined[i], bl[i] + tl[i]);
  }
}

TEST(ListOrder, RespectsPrecedence) {
  const dag::TaskGraph g = diamond_graph();
  const auto order = list_order(g);
  std::vector<std::size_t> position(g.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i].index()] = i;
  }
  for (dag::EdgeId e : g.all_edges()) {
    EXPECT_LT(position[g.edge(e).src.index()],
              position[g.edge(e).dst.index()]);
  }
}

TEST(ListOrder, PicksHigherPriorityAmongReady) {
  // Diamond: bl(c) = 13 > bl(b) = 11, so c is scheduled before b.
  const dag::TaskGraph g = diamond_graph();
  const auto order = list_order(g);
  EXPECT_EQ(order, (std::vector<dag::TaskId>{
                       dag::TaskId(0u), dag::TaskId(2u), dag::TaskId(1u),
                       dag::TaskId(3u)}));
}

TEST(ListOrder, TieBreaksBySmallerId) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(1.0);
  (void)builder.add_task(1.0);
  (void)builder.add_task(1.0);
  const dag::TaskGraph g = builder.build();
  const auto order = list_order(g);
  EXPECT_EQ(order, (std::vector<dag::TaskId>{
                       dag::TaskId(0u), dag::TaskId(1u), dag::TaskId(2u)}));
}

TEST(ListOrder, ExplicitPriorityVector) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(1.0);
  (void)builder.add_task(1.0);
  (void)builder.add_task(1.0);
  const dag::TaskGraph g = builder.build();
  const auto order = list_order(g, std::vector<double>{1.0, 3.0, 2.0});
  EXPECT_EQ(order, (std::vector<dag::TaskId>{
                       dag::TaskId(1u), dag::TaskId(2u), dag::TaskId(0u)}));
  EXPECT_THROW((void)list_order(g, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(ListOrder, LargeGraphIsPermutation) {
  Rng rng(3);
  dag::LayeredDagParams params;
  params.num_tasks = 200;
  const dag::TaskGraph g = dag::random_layered(params, rng);
  const auto order = list_order(g);
  ASSERT_EQ(order.size(), g.num_tasks());
  std::vector<bool> seen(g.num_tasks(), false);
  for (dag::TaskId t : order) {
    EXPECT_FALSE(seen[t.index()]);
    seen[t.index()] = true;
  }
}

}  // namespace
}  // namespace edgesched::sched
