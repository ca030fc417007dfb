#include "sched/classic.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/assignment.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

TEST(Classic, SingleProcessorSerialises) {
  Rng rng(1);
  const net::Topology topo = net::switched_star(1, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork_join(3, 2.0, 5.0);
  const Schedule s = ClassicScheduler{}.schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

TEST(Classic, UsesDirectLinkSpeed) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(10.0, "a");
  const dag::TaskId b = builder.add_task(10.0, "b");
  const dag::TaskId c = builder.add_task(1.0, "c");
  const dag::EdgeId a_c = builder.add_edge(a, c, 4.0);
  (void)builder.add_edge(b, c, 8.0);
  const dag::TaskGraph graph = builder.build();

  net::Topology topo;
  const net::NodeId p0 = topo.add_processor(1.0, "p0");
  const net::NodeId p1 = topo.add_processor(1.0, "p1");
  topo.add_duplex_link(p0, p1, 2.0);

  const Schedule s = ClassicScheduler{}.schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  // One producer per processor; c joins the bigger-edge producer; the
  // remote edge pays c/s(direct) = 4/2 or 8/2 on top of t_f = 10.
  ASSERT_NE(s.task(a).processor, s.task(b).processor);
  const Communication remote =
      s.task(c).processor == s.task(a).processor ? s.communication(
                                                       dag::EdgeId(1u))
                                                 : s.communication(a_c);
  EXPECT_EQ(remote.kind, Communication::Kind::kContentionFree);
  EXPECT_GT(remote.arrival, 10.0);
}

TEST(Classic, NoLinkResourcesBooked) {
  Rng rng(3);
  dag::LayeredDagParams params;
  params.num_tasks = 20;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 4;
  const net::Topology topo = net::random_wan(wan, rng);
  const Schedule s = ClassicScheduler{}.schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    EXPECT_TRUE(comm.kind == Communication::Kind::kLocal ||
                comm.kind == Communication::Kind::kContentionFree);
    EXPECT_TRUE(comm.occupations.empty());
    EXPECT_TRUE(comm.profiles.empty());
  }
}

TEST(Classic, RejectedByStrictValidator) {
  Rng rng(4);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::fork(3, 5.0, 1.0);
  const Schedule s = ClassicScheduler{}.schedule(graph, topo);
  ValidationOptions strict;
  strict.allow_contention_free = false;
  if (s.makespan() > 0.0) {
    // Only fails when at least one edge actually crossed processors.
    bool crossed = false;
    for (dag::EdgeId e : graph.all_edges()) {
      crossed = crossed || s.communication(e).kind ==
                               Communication::Kind::kContentionFree;
    }
    if (crossed) {
      EXPECT_FALSE(is_valid(graph, topo, s, strict));
    }
  }
}

TEST(Replay, KeepsAssignmentsAndIsValid) {
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  const net::Topology topo = net::random_wan(wan, rng);

  const Schedule ideal = ClassicScheduler{}.schedule(graph, topo);
  const Schedule real = replay_under_contention(graph, topo, ideal);
  validate_or_throw(graph, topo, real);
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_EQ(real.task(t).processor, ideal.task(t).processor);
  }
  EXPECT_EQ(real.algorithm(), "CLASSIC-replay");
}

TEST(Replay, ContentionNeverHelps) {
  // The replayed makespan can only be >= the idealised one: contention
  // adds waiting, never removes it.
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    dag::LayeredDagParams params;
    params.num_tasks = 25;
    dag::TaskGraph graph = dag::random_layered(params, rng);
    dag::rescale_to_ccr(graph, 5.0);
    net::RandomWanParams wan;
    wan.num_processors = 6;
    const net::Topology topo = net::random_wan(wan, rng);
    const Schedule ideal = ClassicScheduler{}.schedule(graph, topo);
    const Schedule real = replay_under_contention(graph, topo, ideal);
    EXPECT_GE(real.makespan(), ideal.makespan() - 1e-6);
  }
}

TEST(Replay, RejectsScheduleOfAnotherTopology) {
  // A schedule planned on eight processors names processors a
  // two-processor star does not have: a typed input error, not an
  // internal assertion.
  Rng rng(17);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  const net::Topology planned =
      net::switched_star(8, net::SpeedConfig{}, rng);
  const net::Topology small = net::switched_star(2, net::SpeedConfig{}, rng);
  const Schedule ideal = ClassicScheduler{}.schedule(graph, planned);
  EXPECT_THROW((void)replay_under_contention(graph, small, ideal),
               std::invalid_argument);
}

TEST(Replay, NoOpWithoutCrossEdges) {
  Rng rng(9);
  const net::Topology topo =
      net::switched_star(1, net::SpeedConfig{}, rng);
  const dag::TaskGraph graph = dag::chain(4, 2.0, 3.0);
  const Schedule ideal = ClassicScheduler{}.schedule(graph, topo);
  const Schedule real = replay_under_contention(graph, topo, ideal);
  EXPECT_DOUBLE_EQ(real.makespan(), ideal.makespan());
}

}  // namespace
}  // namespace edgesched::sched
