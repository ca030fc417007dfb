// Exactness of the MLS processor selection (§4.1) answered by speed-group
// min-trees.
//
// `MachineState` keeps one min-tree of t_f(P) per exact processor speed;
// the engine takes the (score, id)-least of the group winners under the
// common ready estimate R and of each predecessor processor scored on its
// own R_P. The claim is that this picks the scan's first strict minimum
// of max(R_P, t_f(P)) + w / s(P) over every processor, bit for bit. With a
// `DecisionLog` installed the engine still lists every processor's
// candidate from the scan, while the choice comes from the trees, so the
// log is the oracle:
//
//   * schedules are byte-identical with and without a log installed, and
//   * every logged task decision names the first strict minimum of its
//     logged candidates by (estimate, index), with that estimate.
//
// Seeded instances use small integer weights and costs (many exact ties,
// a fifth of the edges free) on homogeneous and integer-speed
// heterogeneous fat trees, tori and fully connected fabrics, under OIHSA,
// BBSA and the golden variants `oihsa_firstfit`, `oihsa_eager` and
// `bbsa_bfs`. Hand-built cases pin the three ways the trees can be wrong:
// the idle tie-break, a predecessor processor beating its group's winner,
// and a slower group's winner beating the faster group's.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "dag/task_graph.hpp"
#include "net/builders.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "schedule_canon.hpp"
#include "sched/engine.hpp"
#include "sched/network_state.hpp"
#include "sched/validator.hpp"
#include "util/rng.hpp"

namespace edgesched::sched {
namespace {

struct Variant {
  std::string label;
  AlgorithmSpec spec;
};

std::vector<Variant> mls_variants() {
  AlgorithmSpec firstfit = oihsa_spec();
  firstfit.insertion = InsertionPolicyKind::kFirstFit;
  AlgorithmSpec eager = oihsa_spec();
  eager.eager_communication = true;
  AlgorithmSpec bbsa_bfs = bbsa_spec();
  bbsa_bfs.routing = RoutingPolicyKind::kBfsMinimal;
  return {{"oihsa", oihsa_spec()},
          {"bbsa", bbsa_spec()},
          {"oihsa_firstfit", firstfit},
          {"oihsa_eager", eager},
          {"bbsa_bfs", bbsa_bfs}};
}

/// A layered DAG with integer weights in [1, 4] and integer costs in
/// [0, 12], a fifth of them zero: exact score ties are common.
dag::TaskGraph tie_heavy_graph(std::size_t tasks, Rng& rng) {
  dag::LayeredDagParams params;
  params.num_tasks = tasks;
  params.in_degree_max = 5;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  for (const dag::TaskId t : graph.all_tasks()) {
    graph.set_weight(t, static_cast<double>(rng.uniform_int(1, 4)));
  }
  for (const dag::EdgeId e : graph.all_edges()) {
    graph.set_cost(e, rng.bernoulli(0.2)
                          ? 0.0
                          : static_cast<double>(rng.uniform_int(1, 12)));
  }
  return graph;
}

std::vector<std::pair<std::string, net::Topology>> fabrics(Rng& rng) {
  net::SpeedConfig hetero;
  hetero.heterogeneous = true;
  hetero.processor_speed_max = 3.0;  // three groups of several members
  hetero.link_speed_max = 4.0;
  std::vector<std::pair<std::string, net::Topology>> result;
  result.emplace_back("fat_tree", net::fat_tree(3, 4, {}, rng));
  result.emplace_back("fat_tree_hetero", net::fat_tree(3, 4, hetero, rng));
  result.emplace_back("torus", net::torus2d(3, 3, {}, rng));
  result.emplace_back("torus_hetero", net::torus2d(3, 3, hetero, rng));
  result.emplace_back("fully_connected", net::fully_connected(6, {}, rng));
  result.emplace_back("fully_connected_hetero",
                      net::fully_connected(6, hetero, rng));
  return result;
}

/// The JSON task-decision lines of a decision log, in recording order.
std::vector<obs::JsonValue> task_decisions(const std::string& jsonl) {
  std::vector<obs::JsonValue> docs;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue doc = obs::JsonValue::parse(line);
    if (doc.at("type").as_string() == "task") {
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

TEST(MlsSelectionProperty, TreesPickTheScansFirstStrictMinimum) {
  Rng rng(20261018);
  const auto topologies = fabrics(rng);
  std::size_t decisions_checked = 0;
  for (int instance = 0; instance < 4; ++instance) {
    const dag::TaskGraph graph =
        tie_heavy_graph(40 + 30 * static_cast<std::size_t>(instance), rng);
    for (const auto& [fabric, topology] : topologies) {
      for (const Variant& variant : mls_variants()) {
        SCOPED_TRACE(variant.label + " on " + fabric + ", instance " +
                     std::to_string(instance));
        const SpecScheduler scheduler(variant.spec);
        const Schedule plain = scheduler.schedule(graph, topology);
        validate_or_throw(graph, topology, plain);
        std::ostringstream jsonl;
        obs::DecisionLog log(jsonl);
        const Schedule logged = [&] {
          obs::ScopedDecisionLog scoped(log);
          return scheduler.schedule(graph, topology);
        }();
        ASSERT_EQ(test::canonical_schedule(graph, logged),
                  test::canonical_schedule(graph, plain));

        const auto decisions = task_decisions(jsonl.str());
        ASSERT_EQ(decisions.size(), graph.num_tasks());
        for (const obs::JsonValue& decision : decisions) {
          const obs::JsonValue& candidates = decision.at("candidates");
          ASSERT_EQ(candidates.size(), topology.num_processors());
          std::size_t first = 0;
          for (std::size_t i = 1; i < candidates.size(); ++i) {
            if (candidates.at(i).at("estimate").as_number() <
                candidates.at(first).at("estimate").as_number()) {
              first = i;
            }
          }
          EXPECT_EQ(decision.at("chosen_processor").as_number(),
                    candidates.at(first).at("processor").as_number())
              << "task " << decision.at("task").as_number();
          EXPECT_EQ(decision.at("chosen_estimate").as_number(),
                    candidates.at(first).at("estimate").as_number())
              << "task " << decision.at("task").as_number();
          ++decisions_checked;
        }
      }
    }
  }
  EXPECT_GT(decisions_checked, 0u);
}

/// Processors of the given speeds joined to one switch by unit links.
net::Topology star_of(const std::vector<double>& speeds) {
  net::Topology topology;
  const net::NodeId hub = topology.add_switch("hub");
  for (const double speed : speeds) {
    const net::NodeId p = topology.add_processor(speed);
    topology.add_duplex_link(p, hub, 1.0);
  }
  return topology;
}

TEST(MlsSelection, AllIdlePicksTheLowestIndex) {
  const net::Topology topology = star_of({1.0, 1.0, 1.0, 1.0});
  const MachineState machines(topology);
  const MachineState::Estimate best = machines.least_group_estimate(0.0, 3.0);
  EXPECT_EQ(best.processor, topology.processors().front());
  EXPECT_EQ(best.score, 3.0);

  // Four independent equal tasks: each, in placement order, lands on the
  // lowest idle index.
  dag::TaskGraphBuilder builder;
  for (int i = 0; i < 4; ++i) {
    (void)builder.add_task(3.0);
  }
  const dag::TaskGraph graph = builder.build();
  std::ostringstream jsonl;
  obs::DecisionLog log(jsonl);
  {
    obs::ScopedDecisionLog scoped(log);
    (void)SpecScheduler(oihsa_spec()).schedule(graph, topology);
  }
  const auto decisions = task_decisions(jsonl.str());
  ASSERT_EQ(decisions.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decisions[i].at("chosen_processor").as_number(),
              static_cast<double>(topology.processors()[i].index()));
  }
}

TEST(MlsSelection, TiesAcrossGroupsGoToTheLowestIndex) {
  // Speeds 2, 1, 2: an idle weight-0 task scores 0 everywhere.
  const net::Topology topology = star_of({2.0, 1.0, 2.0});
  MachineState machines(topology);
  EXPECT_EQ(machines.num_speed_groups(), 2u);
  const auto& procs = topology.processors();
  EXPECT_EQ(machines.least_group_estimate(0.0, 0.0).processor, procs[0]);
  // Busy p0 until 1: the slow group's p1 (score 0) now wins over p2.
  machines.commit(procs[0], dag::TaskId(0u), 0.0, 1.0);
  EXPECT_EQ(machines.least_group_estimate(0.0, 0.0).processor, procs[1]);
  // With ready 1 every processor scores 1: p0 is lowest again.
  EXPECT_EQ(machines.least_group_estimate(1.0, 0.0).processor, procs[0]);
}

TEST(MlsSelection, PredecessorProcessorBeatsItsGroupsWinner) {
  // Two equal processors. x (highest priority) takes p0 until 3; a then
  // takes the idle p1 until 2. For b, fed by a over a cost-10 edge, the
  // common R = 2 + 10 makes p0 and p1 tie at 13 and the group's winner is
  // p0, but on p1 the edge is free and b scores 3.
  const net::Topology topology = star_of({1.0, 1.0});
  dag::TaskGraphBuilder builder;
  const dag::TaskId x = builder.add_task(3.0, "x");
  const dag::TaskId y = builder.add_task(1.0, "y");
  const dag::TaskId a = builder.add_task(2.0, "a");
  const dag::TaskId b = builder.add_task(1.0, "b");
  (void)builder.add_edge(x, y, 100.0);
  (void)builder.add_edge(a, b, 10.0);
  const dag::TaskGraph graph = builder.build();
  const auto& procs = topology.processors();

  MachineState machines(topology);
  machines.commit(procs[0], x, 0.0, 3.0);
  machines.commit(procs[1], a, 0.0, 2.0);
  const MachineState::Estimate group =
      machines.least_group_estimate(2.0 + 10.0 / 1.0, 1.0);
  EXPECT_EQ(group.processor, procs[0]);
  EXPECT_EQ(group.score, 13.0);

  const Schedule schedule = SpecScheduler(oihsa_spec()).schedule(graph,
                                                                 topology);
  ASSERT_EQ(schedule.task(x).processor, procs[0]);
  ASSERT_EQ(schedule.task(a).processor, procs[1]);
  EXPECT_EQ(schedule.task(b).processor, procs[1]);
  EXPECT_EQ(schedule.task(b).finish, 3.0);
}

TEST(MlsSelection, SlowerGroupsWinnerBeatsTheFastersGroup) {
  // p0 runs at 2, p1 at 1. The long task takes p0 (finish 10 vs 20);
  // the short one then scores 11 on p0 and 2 on the slower p1.
  const net::Topology topology = star_of({2.0, 1.0});
  dag::TaskGraphBuilder builder;
  const dag::TaskId big = builder.add_task(20.0, "big");
  const dag::TaskId small = builder.add_task(2.0, "small");
  const dag::TaskGraph graph = builder.build();
  const auto& procs = topology.processors();
  const Schedule schedule = SpecScheduler(oihsa_spec()).schedule(graph,
                                                                 topology);
  EXPECT_EQ(schedule.task(big).processor, procs[0]);
  EXPECT_EQ(schedule.task(small).processor, procs[1]);
  EXPECT_EQ(schedule.task(small).finish, 2.0);
}

}  // namespace
}  // namespace edgesched::sched
