#include "sched/assignment.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

TEST(Assignment, AllOnOneProcessorSerialises) {
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Assignment all_first(graph.num_tasks(), topo.processors()[0]);
  const Schedule s = schedule_assignment(graph, topo, all_first);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
  EXPECT_EQ(s.algorithm(), "ASSIGNMENT");
}

TEST(Assignment, CrossAssignmentsBookLinks) {
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::chain(2, 2.0, 4.0);
  Assignment split{topo.processors()[0], topo.processors()[1]};
  const Schedule s = schedule_assignment(graph, topo, split);
  validate_or_throw(graph, topo, s);
  EXPECT_EQ(s.communication(dag::EdgeId(0u)).kind,
            Communication::Kind::kExclusive);
  // Ship at ready (2), two cut-through hops of 4: arrival 6, finish 8.
  EXPECT_DOUBLE_EQ(s.makespan(), 8.0);
}

TEST(Assignment, RoundTripsListSchedulerAssignments) {
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = 5;
  const net::Topology topo = net::random_wan(wan, rng);

  for (const Schedule& original :
       {SpecScheduler(ba_spec()).schedule(graph, topo),
        SpecScheduler(oihsa_spec()).schedule(graph, topo)}) {
    const Assignment extracted = assignment_of(graph, original);
    const Schedule rebuilt =
        schedule_assignment(graph, topo, extracted);
    validate_or_throw(graph, topo, rebuilt);
    for (dag::TaskId t : graph.all_tasks()) {
      EXPECT_EQ(rebuilt.task(t).processor, original.task(t).processor);
    }
  }
}

TEST(Assignment, MakespanHelperMatchesSchedule) {
  Rng rng(3);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork_join(4, 2.0, 3.0);
  Assignment assignment(graph.num_tasks());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = topo.processors()[i % topo.num_processors()];
  }
  EXPECT_DOUBLE_EQ(assignment_makespan(graph, topo, assignment),
                   schedule_assignment(graph, topo, assignment)
                       .makespan());
}

TEST(Assignment, RejectsBadInput) {
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::chain(2);
  EXPECT_THROW((void)schedule_assignment(graph, topo, Assignment{}),
               std::invalid_argument);
  Assignment bad(graph.num_tasks(), net::NodeId(0u));  // the switch
  EXPECT_THROW((void)schedule_assignment(graph, topo, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::sched
