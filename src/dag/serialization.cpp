#include "dag/serialization.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

namespace edgesched::dag {

void write_dot(std::ostream& out, const TaskGraph& graph) {
  out << "digraph \"" << (graph.name().empty() ? "dag" : graph.name())
      << "\" {\n";
  for (TaskId t : graph.all_tasks()) {
    out << "  t" << t.value() << " [label=\"" << graph.name(t) << "\\nw="
        << graph.weight(t) << "\"];\n";
  }
  for (EdgeId e : graph.all_edges()) {
    const Edge& edge = graph.edge(e);
    out << "  t" << edge.src.value() << " -> t" << edge.dst.value()
        << " [label=\"" << edge.cost << "\"];\n";
  }
  out << "}\n";
}

void write_text(std::ostream& out, const TaskGraph& graph) {
  out << "graph " << (graph.name().empty() ? "dag" : graph.name()) << "\n";
  for (TaskId t : graph.all_tasks()) {
    out << "task " << t.value() << ' ' << graph.weight(t) << ' '
        << graph.name(t) << "\n";
  }
  for (EdgeId e : graph.all_edges()) {
    const Edge& edge = graph.edge(e);
    out << "edge " << edge.src.value() << ' ' << edge.dst.value() << ' '
        << edge.cost << "\n";
  }
}

TaskGraph read_text(std::istream& in) {
  TaskGraphBuilder graph;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    const std::string where = " at line " + std::to_string(line_number);
    if (keyword == "graph") {
      std::string name;
      fields >> name;
      graph.set_name(name);
    } else if (keyword == "task") {
      std::uint32_t id = 0;
      double weight = 0.0;
      std::string name;
      fields >> id >> weight;
      throw_if(fields.fail(), "read_text: malformed task line" + where);
      fields >> name;  // optional
      const TaskId assigned = graph.add_task(weight, name);
      throw_if(assigned.value() != id,
               "read_text: task ids must be dense and ordered" + where);
    } else if (keyword == "edge") {
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      double cost = 0.0;
      fields >> src >> dst >> cost;
      throw_if(fields.fail(), "read_text: malformed edge line" + where);
      graph.add_edge(TaskId(src), TaskId(dst), cost);
    } else {
      throw_if(true, "read_text: unknown keyword '" + keyword + "'" + where);
    }
  }
  return graph.build();
}

TaskGraph read_stg(std::istream& in, double default_comm_cost) {
  throw_if(!(std::isfinite(default_comm_cost) && default_comm_cost >= 0.0),
           "read_stg: negative default communication cost");
  std::size_t declared = 0;
  in >> declared;
  throw_if(in.fail(), "read_stg: missing task count");
  const std::size_t total = declared + 2;  // + dummy entry and exit

  TaskGraphBuilder graph("stg");
  struct Pending {
    std::uint32_t src;
    std::uint32_t dst;
  };
  std::vector<Pending> pending;
  for (std::size_t line = 0; line < total; ++line) {
    std::uint32_t id = 0;
    double processing = 0.0;
    std::size_t num_preds = 0;
    in >> id >> processing >> num_preds;
    throw_if(in.fail(), "read_stg: malformed task line " +
                            std::to_string(line));
    const TaskId assigned = graph.add_task(processing);
    throw_if(assigned.value() != id,
             "read_stg: task ids must be dense and ordered");
    for (std::size_t p = 0; p < num_preds; ++p) {
      std::uint32_t pred = 0;
      in >> pred;
      throw_if(in.fail(), "read_stg: malformed predecessor list");
      pending.push_back(Pending{pred, id});
    }
  }
  for (const Pending& edge : pending) {
    graph.add_edge(TaskId(edge.src), TaskId(edge.dst),
                   default_comm_cost);
  }
  return graph.build();
}

void write_stg(std::ostream& out, const TaskGraph& graph) {
  throw_if(graph.num_tasks() < 2, "write_stg: graph too small");
  const std::vector<TaskId> entries = graph.entry_tasks();
  const std::vector<TaskId> exits = graph.exit_tasks();
  throw_if(entries.size() != 1 || entries.front() != TaskId(0u),
           "write_stg: graph must have a unique entry task with id 0");
  throw_if(exits.size() != 1 ||
               exits.front() != TaskId(graph.num_tasks() - 1),
           "write_stg: graph must have a unique exit task with the last "
           "id");
  out << (graph.num_tasks() - 2) << "\n";
  for (TaskId t : graph.all_tasks()) {
    const std::vector<TaskId> preds = graph.predecessors(t);
    out << t.value() << ' ' << graph.weight(t) << ' ' << preds.size();
    for (TaskId p : preds) {
      out << ' ' << p.value();
    }
    out << "\n";
  }
}

}  // namespace edgesched::dag
