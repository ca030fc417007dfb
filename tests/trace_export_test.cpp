#include "sched/trace_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "obs/json.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

std::string chrome_trace_of(const dag::TaskGraph& graph,
                            const net::Topology& topology,
                            const Schedule& schedule) {
  std::ostringstream os;
  write_chrome_trace(os, graph, topology, schedule);
  return os.str();
}

std::string gantt_of(const dag::TaskGraph& graph,
                     const net::Topology& topology,
                     const Schedule& schedule) {
  std::ostringstream os;
  write_ascii_gantt(os, graph, topology, schedule);
  return os.str();
}

struct Fixture {
  dag::TaskGraph graph = dag::fork(2, 20.0, 6.0);
  net::Topology topo;
  Schedule schedule;

  Fixture()
      : topo([] {
          Rng rng(1);
          return net::switched_star(3, net::SpeedConfig{}, rng);
        }()),
        schedule(SpecScheduler(ba_spec()).schedule(graph, topo)) {}
};

TEST(ChromeTrace, IsWellFormedJson) {
  const Fixture f;
  const std::string json = chrome_trace_of(f.graph, f.topo, f.schedule);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Balanced braces and brackets (crude but effective well-formedness).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ChromeTrace, ContainsEveryTask) {
  const Fixture f;
  const std::string json = chrome_trace_of(f.graph, f.topo, f.schedule);
  for (dag::TaskId t : f.graph.all_tasks()) {
    EXPECT_NE(json.find("\"" + f.graph.name(t) + "\""),
              std::string::npos)
        << f.graph.name(t);
  }
}

TEST(ChromeTrace, ContainsLinkRowsForRemoteEdges) {
  const Fixture f;
  bool any_remote = false;
  for (dag::EdgeId e : f.graph.all_edges()) {
    any_remote = any_remote ||
                 f.schedule.communication(e).kind ==
                     Communication::Kind::kExclusive;
  }
  ASSERT_TRUE(any_remote);
  const std::string json = chrome_trace_of(f.graph, f.topo, f.schedule);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("->"), std::string::npos);
}

TEST(ChromeTrace, EscapesNames) {
  dag::TaskGraphBuilder builder;
  (void)builder.add_task(1.0, "we\"ird");
  const dag::TaskGraph graph = builder.build();
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(1, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  const std::string json = chrome_trace_of(graph, topo, s);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
}

// Control characters can reach names through the TaskGraph API or a
// read_text token (`>>` splits only on whitespace); the trace must stay
// parseable JSON and round-trip them.
TEST(ChromeTrace, ControlCharactersInNamesStayValidJson) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId src = builder.add_task(4.0, "src\tA");
  const dag::TaskId dst = builder.add_task(4.0, "dst\x01" "B");
  const dag::TaskId sib = builder.add_task(4.0, "sib");
  (void)builder.add_edge(src, dst, 50.0);
  (void)builder.add_edge(src, sib, 50.0);
  const dag::TaskGraph graph = builder.build();
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  const std::string json = chrome_trace_of(graph, topo, s);
  // RFC 8259 forbids raw control characters inside strings; the writer's
  // only raw one is the newline between events. JsonValue::parse rejects
  // them in strings too, so the parse below checks the same thing.
  for (const char c : json) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control character " << static_cast<int>(c);
  }
  const std::string raw_tab = "{\"traceEvents\": [{\"name\": \"src\tA\"}]}";
  EXPECT_THROW((void)obs::JsonValue::parse(raw_tab), std::runtime_error);
  const obs::JsonValue trace = obs::JsonValue::parse(json);
  const obs::JsonValue& events = trace.at("traceEvents");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    names.push_back(events.at(i).at("name").as_string());
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "src\tA"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "dst\x01" "B"),
            names.end());
}

// Past 10^6 time units a 6-significant-digit spelling merges distinct
// timestamps; every exported ts/dur must parse to the schedule's double.
TEST(ChromeTrace, TimesPastAMillionRoundTripExactly) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId root = builder.add_task(1234567.891, "root");
  const dag::TaskId left = builder.add_task(2345678.123, "left");
  const dag::TaskId right = builder.add_task(3456789.017, "right");
  (void)builder.add_edge(root, left, 1000000.3);
  (void)builder.add_edge(root, right, 1000000.7);
  const dag::TaskGraph graph = builder.build();
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(oihsa_spec()).schedule(graph, topo);
  const obs::JsonValue trace =
      obs::JsonValue::parse(chrome_trace_of(graph, topo, s));
  const obs::JsonValue& events = trace.at("traceEvents");
  std::size_t tasks = 0;
  std::size_t links = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    if (e.at("ph").as_string() != "X") {
      continue;
    }
    const double ts = e.at("ts").as_number();
    const double dur = e.at("dur").as_number();
    if (e.at("pid").as_number() == 0.0) {
      for (dag::TaskId t : graph.all_tasks()) {
        if (graph.name(t) == e.at("name").as_string()) {
          const TaskPlacement& p = s.task(t);
          EXPECT_EQ(ts, p.start) << graph.name(t);
          EXPECT_EQ(dur, p.finish - p.start) << graph.name(t);
          ++tasks;
        }
      }
      continue;
    }
    bool matched = false;
    for (dag::EdgeId edge : graph.all_edges()) {
      for (const LinkOccupation& occ : s.communication(edge).occupations) {
        matched = matched || (occ.start == ts && occ.finish - occ.start == dur);
      }
    }
    EXPECT_TRUE(matched) << e.at("name").as_string() << " ts=" << ts;
    ++links;
  }
  EXPECT_EQ(tasks, graph.num_tasks());
  EXPECT_GT(links, 0u);
}

TEST(AsciiGantt, PaintsTasksAndLinks) {
  const Fixture f;
  const std::string gantt = gantt_of(f.graph, f.topo, f.schedule);
  EXPECT_NE(gantt.find("makespan="), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);  // task execution
  EXPECT_NE(gantt.find('='), std::string::npos);  // link occupation
  // One row per processor.
  for (net::NodeId p : f.topo.processors()) {
    EXPECT_NE(gantt.find(f.topo.node(p).name), std::string::npos);
  }
}

TEST(AsciiGantt, WorksForBandwidthSchedules) {
  const Fixture f;
  const Schedule bbsa =
      SpecScheduler(bbsa_spec()).schedule(f.graph, f.topo);
  validate_or_throw(f.graph, f.topo, bbsa);
  const std::string gantt = gantt_of(f.graph, f.topo, bbsa);
  EXPECT_NE(gantt.find("BBSA"), std::string::npos);
}

TEST(AsciiGantt, EmptyScheduleDoesNotCrash) {
  const dag::TaskGraph graph;
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(1, net::SpeedConfig{}, rng);
  const Schedule s("X", 0, 0);
  const std::string gantt = gantt_of(graph, topo, s);
  EXPECT_NE(gantt.find("makespan=0"), std::string::npos);
}

}  // namespace
}  // namespace edgesched::sched
