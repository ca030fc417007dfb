// Tests of the scheduling-model option knobs documented in DESIGN.md §6:
// communication departure time, task placement policy, BA's processor
// selection mode, and OIHSA's estimate variant. Each knob must keep
// schedules valid, and the relationships the model implies must hold.
#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

Instance make(std::uint64_t seed, double ccr = 3.0) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  Instance inst{dag::random_layered(params, rng), net::Topology{}};
  dag::rescale_to_ccr(inst.graph, ccr);
  net::RandomWanParams wan;
  wan.num_processors = 6;
  inst.topo = net::random_wan(wan, rng);
  return inst;
}

Schedule run(const AlgorithmSpec& spec, const Instance& inst) {
  return SpecScheduler(spec).schedule(inst.graph, inst.topo);
}

TEST(ModelSemantics, EveryKnobKeepsBaValid) {
  const Instance inst = make(1);
  for (auto selection : {SelectionPolicyKind::kBlindEft,
                         SelectionPolicyKind::kTentativeEft}) {
    for (bool eager : {false, true}) {
      for (bool insertion : {false, true}) {
        AlgorithmSpec spec = ba_spec();
        spec.selection = selection;
        spec.eager_communication = eager;
        spec.task_insertion = insertion;
        validate_or_throw(inst.graph, inst.topo, run(spec, inst));
      }
    }
  }
}

TEST(ModelSemantics, EveryKnobKeepsOihsaValid) {
  const Instance inst = make(2);
  for (bool eager : {false, true}) {
    for (bool insertion : {false, true}) {
      AlgorithmSpec spec = oihsa_spec();
      spec.eager_communication = eager;
      spec.task_insertion = insertion;
      validate_or_throw(inst.graph, inst.topo, run(spec, inst));
    }
  }
}

TEST(ModelSemantics, EveryKnobKeepsBbsaValid) {
  const Instance inst = make(3);
  for (bool eager : {false, true}) {
    for (bool insertion : {false, true}) {
      AlgorithmSpec spec = bbsa_spec();
      spec.eager_communication = eager;
      spec.task_insertion = insertion;
      validate_or_throw(inst.graph, inst.topo, run(spec, inst));
    }
  }
}

TEST(ModelSemantics, EagerShippingNeverLater) {
  // Per edge: shipping at the source's finish can only start transfers
  // earlier than waiting for the ready moment, so on average across
  // seeds eager makespans should not be (much) worse. We assert the mean
  // relationship, not per instance.
  double ready_total = 0.0;
  double eager_total = 0.0;
  AlgorithmSpec eager = oihsa_spec();
  eager.eager_communication = true;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = make(seed, 5.0);
    ready_total += run(oihsa_spec(), inst).makespan();
    eager_total += run(eager, inst).makespan();
  }
  EXPECT_LE(eager_total, ready_total * 1.05);
}

TEST(ModelSemantics, TentativeBaIsStrongerThanBlindBa) {
  // Sinnen's tentative evaluation sees actual contention; it must beat
  // the communication-blind selection on contended instances on average.
  double blind_total = 0.0;
  double tentative_total = 0.0;
  AlgorithmSpec tentative = ba_spec();
  tentative.selection = SelectionPolicyKind::kTentativeEft;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = make(seed, 5.0);
    blind_total += run(ba_spec(), inst).makespan();
    tentative_total += run(tentative, inst).makespan();
  }
  EXPECT_LT(tentative_total, blind_total);
}

TEST(ModelSemantics, AppendPlacementNeverOverlapsAndOrdersByCommit) {
  const Instance inst = make(4);
  AlgorithmSpec append = oihsa_spec();
  append.task_insertion = false;
  validate_or_throw(inst.graph, inst.topo, run(append, inst));
}

TEST(ModelSemantics, ReadyMomentDominatesEdgeStart) {
  // Under the dynamic model every remote transfer starts at or after the
  // latest predecessor finish of its destination task.
  const Instance inst = make(5, 5.0);
  const Schedule s = run(oihsa_spec(), inst);
  for (dag::TaskId t : inst.graph.all_tasks()) {
    double ready_moment = 0.0;
    for (dag::EdgeId e : inst.graph.in_edges(t)) {
      ready_moment = std::max(
          ready_moment, s.task(inst.graph.edge(e).src).finish);
    }
    for (dag::EdgeId e : inst.graph.in_edges(t)) {
      const Communication comm = s.communication(e);
      if (comm.kind == Communication::Kind::kExclusive) {
        EXPECT_GE(comm.occupations.front().earliest_start,
                  ready_moment - 1e-6);
      }
    }
  }
}

}  // namespace
}  // namespace edgesched::sched
