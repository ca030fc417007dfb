// The engine's ready queue against the definition of the list order.
//
// `ReadyQueue` is the library's one Kahn loop: the engine pops it during
// placement and `list_order` drains it up front. Both must produce the
// order the paper defines — repeatedly pick the ready task with the
// highest priority, smallest id on ties. The oracle below evaluates
// that definition directly in O(V^2), independent of any heap. The
// tests drive all three over randomized layered DAGs (duplicate
// priorities included, so tie-breaks actually fire) and require
// element-for-element equal orders.
#include <gtest/gtest.h>

#include <vector>

#include "dag/generators.hpp"
#include "sched/priorities.hpp"
#include "sched/ready_queue.hpp"
#include "util/rng.hpp"

namespace edgesched::sched {
namespace {

std::vector<dag::TaskId> drain(const dag::TaskGraph& graph,
                               const std::vector<double>& priority) {
  ReadyQueue queue(graph, priority);
  std::vector<dag::TaskId> order;
  order.reserve(graph.num_tasks());
  dag::TaskId task;
  while (queue.pop(task)) {
    order.push_back(task);
    queue.release_successors(graph, task);
  }
  EXPECT_EQ(order.size(), graph.num_tasks());
  return order;
}

/// The definition, O(V^2): scan every unscheduled task whose
/// predecessors are all scheduled and take the highest priority,
/// smallest id on ties.
std::vector<dag::TaskId> defined_order(const dag::TaskGraph& graph,
                                       const std::vector<double>& priority) {
  const std::size_t n = graph.num_tasks();
  std::vector<bool> done(n, false);
  std::vector<dag::TaskId> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (done[t]) {
        continue;
      }
      bool ready = true;
      for (dag::EdgeId e : graph.in_edges(dag::TaskId(t))) {
        ready = ready && done[graph.edge(e).src.index()];
      }
      if (ready && (best == n || priority[t] > priority[best])) {
        best = t;  // ascending scan: a tie keeps the smaller id
      }
    }
    EXPECT_LT(best, n) << "no ready task at step " << step;
    if (best == n) {
      break;
    }
    done[best] = true;
    order.push_back(dag::TaskId(best));
  }
  return order;
}

void expect_same_order(const std::vector<dag::TaskId>& incremental,
                       const std::vector<dag::TaskId>& reference) {
  ASSERT_EQ(incremental.size(), reference.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    ASSERT_EQ(incremental[i], reference[i]) << "position " << i;
  }
}

class ReadyQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadyQueueProperty, PopSequenceMatchesListOrderOnRandomDags) {
  Rng rng(GetParam());
  for (std::size_t round = 0; round < 30; ++round) {
    dag::LayeredDagParams params;
    params.num_tasks = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const dag::TaskGraph graph = dag::random_layered(params, rng);
    for (const PriorityScheme scheme :
         {PriorityScheme::kBottomLevel,
          PriorityScheme::kBottomLevelComputationOnly,
          PriorityScheme::kTopLevelPlusBottomLevel}) {
      const std::vector<double> prio = priorities(graph, scheme);
      const std::vector<dag::TaskId> reference = defined_order(graph, prio);
      expect_same_order(drain(graph, prio), reference);
      expect_same_order(list_order(graph, prio), reference);
    }
  }
}

// Constant priorities force every comparison through the task-id
// tie-break — the most divergence-prone path.
TEST_P(ReadyQueueProperty, PopSequenceMatchesListOrderUnderFullTies) {
  Rng rng(GetParam() + 50);
  dag::LayeredDagParams params;
  params.num_tasks = 200;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const std::vector<double> flat(graph.num_tasks(), 1.0);
  const std::vector<dag::TaskId> reference = defined_order(graph, flat);
  expect_same_order(drain(graph, flat), reference);
  expect_same_order(list_order(graph, flat), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadyQueueProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::sched
