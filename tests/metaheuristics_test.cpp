#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/annealing.hpp"
#include "sched/assignment.hpp"
#include "sched/engine.hpp"
#include "sched/genetic.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

// The registry's GA and SA, whose settings are fixed, at 20 tasks on 4
// processors.
struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

Instance make(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = 20;
  Instance inst{dag::random_layered(params, rng), net::Topology{}};
  dag::rescale_to_ccr(inst.graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = 4;
  inst.topo = net::random_wan(wan, rng);
  return inst;
}

TEST(Genetic, ProducesValidSchedules) {
  const Instance inst = make(1);
  const Schedule s =
      GeneticScheduler().schedule(inst.graph, inst.topo);
  validate_or_throw(inst.graph, inst.topo, s);
  EXPECT_EQ(s.algorithm(), "GA");
}

TEST(Genetic, NeverWorseThanItsSeeds) {
  // The initial population contains the OIHSA assignment and the search
  // is elitist, so the result cannot be worse than OIHSA's assignment
  // re-evaluated by the fixed-assignment scheduler.
  const Instance inst = make(2);
  const double seed_cost = assignment_makespan(
      inst.graph, inst.topo,
      assignment_of(inst.graph, SpecScheduler(oihsa_spec())
                                    .schedule(inst.graph, inst.topo)));
  const Schedule s =
      GeneticScheduler().schedule(inst.graph, inst.topo);
  EXPECT_LE(s.makespan(), seed_cost + 1e-6);
}

TEST(Genetic, DeterministicForSeed) {
  const Instance inst = make(3);
  const GeneticScheduler ga;
  EXPECT_DOUBLE_EQ(ga.schedule(inst.graph, inst.topo).makespan(),
                   ga.schedule(inst.graph, inst.topo).makespan());
}

TEST(Annealing, ProducesValidSchedules) {
  const Instance inst = make(4);
  const Schedule s =
      AnnealingScheduler().schedule(inst.graph, inst.topo);
  validate_or_throw(inst.graph, inst.topo, s);
  EXPECT_EQ(s.algorithm(), "SA");
}

TEST(Annealing, NeverWorseThanItsStart) {
  const Instance inst = make(5);
  const double start_cost = assignment_makespan(
      inst.graph, inst.topo,
      assignment_of(inst.graph, SpecScheduler(oihsa_spec())
                                    .schedule(inst.graph, inst.topo)));
  const Schedule s =
      AnnealingScheduler().schedule(inst.graph, inst.topo);
  EXPECT_LE(s.makespan(), start_cost + 1e-6);
}

TEST(Annealing, DeterministicForSeed) {
  const Instance inst = make(6);
  const AnnealingScheduler sa;
  EXPECT_DOUBLE_EQ(sa.schedule(inst.graph, inst.topo).makespan(),
                   sa.schedule(inst.graph, inst.topo).makespan());
}

TEST(Metaheuristics, SearchImprovesOnRandomAssignments) {
  // Sanity: on a contended instance the GA result beats the mean random
  // assignment comfortably.
  const Instance inst = make(7);
  Rng rng(7);
  double random_total = 0.0;
  const auto& procs = inst.topo.processors();
  for (int k = 0; k < 5; ++k) {
    Assignment random_assignment(inst.graph.num_tasks());
    for (auto& gene : random_assignment) {
      gene = procs[rng.index(procs.size())];
    }
    random_total +=
        assignment_makespan(inst.graph, inst.topo, random_assignment);
  }
  const Schedule s =
      GeneticScheduler().schedule(inst.graph, inst.topo);
  EXPECT_LT(s.makespan(), random_total / 5.0);
}

}  // namespace
}  // namespace edgesched::sched
