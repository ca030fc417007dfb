#include "dag/transforms.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"

namespace edgesched::dag {
namespace {

TEST(InducedSubgraph, ExtractsClosedSubsets) {
  const TaskGraph g = fork_join(3, 2.0, 3.0);
  // source + two middles.
  const Subgraph sub = induced_subgraph(
      g, {TaskId(0u), TaskId(2u), TaskId(3u)});
  EXPECT_EQ(sub.graph.num_tasks(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // source->m1, source->m2
  EXPECT_FALSE(sub.new_id[1].valid());   // the sink was not selected
  EXPECT_TRUE(sub.new_id[0].valid());
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const TaskGraph g = chain(3);
  EXPECT_THROW(
      (void)induced_subgraph(g, {TaskId(0u), TaskId(0u)}),
      std::invalid_argument);
  EXPECT_THROW((void)induced_subgraph(g, {TaskId(9u)}),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::dag
