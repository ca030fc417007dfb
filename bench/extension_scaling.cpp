// Scale-frontier sweep: task count x processor count for the
// contention-aware algorithms on switched fat-tree topologies.
//
// The paper's experiments stop at hundreds of tasks; this bench is the
// evidence that the engine's large-scale structures (hierarchical gap
// index, sharded route caches, per-run arenas, incremental ready queue)
// hold the measured growth near the documented O(E log V + E * R)
// model instead of the quadratic blowup the linear structures had. Per
// cell it schedules a random layered DAG and reports wall time,
// makespan, the routed-edge count and the Dijkstra relaxations per
// routed edge (0 under BA's static routing); per (algorithm, processors)
// series it fits the scaling exponent of time vs tasks by log-log least
// squares. Those exponents back the complexity table in
// docs/performance.md.
//
// Scale tiers:
//   default            CI-sized grid (seconds; gated in ci.yml against
//                      bench/baselines/post/GBENCH_extension_scaling.json)
//                      plus one 10k-task x 256-processor frontier cell
//                      for oihsa and bbsa
//   EDGESCHED_SCALE_FULL=1
//                      the 50k-task / 256-processor frontier
//   EDGESCHED_SCALE_TASKS / _PROCS / _ALGOS / _BA_TASKS_MAX /
//   EDGESCHED_REPS     manual overrides (comma-separated lists)
//
// Outputs, to $EDGESCHED_BENCH_DIR (or the working directory):
//   BENCH_extension_scaling.json   telemetry: cells + fitted exponents
//   GBENCH_extension_scaling.json  google-benchmark-shaped file for
//                                  tools/bench_compare (name/cpu_time
//                                  per cell, run_type "iteration")
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

#include "telemetry.hpp"

namespace {

using namespace edgesched;

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<std::size_t>(std::stoull(item)));
    }
  }
  return out;
}

std::vector<std::string> parse_names(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

/// Fat tree with ~16 processors per leaf switch — the bench's canonical
/// switched topology family, scaled by total processor count.
net::Topology switched_topology(std::size_t processors, Rng& rng) {
  const std::size_t per_leaf = std::min<std::size_t>(processors, 16);
  const std::size_t leaves = std::max<std::size_t>(1, processors / per_leaf);
  return net::fat_tree(leaves, per_leaf, net::SpeedConfig{}, rng);
}

struct Cell {
  std::string algorithm;
  std::size_t tasks = 0;
  std::size_t procs = 0;
  double seconds = 0.0;
  double makespan = 0.0;
  std::size_t edges = 0;
  double relaxations_per_routed_edge = 0.0;
};

/// One (tasks, processors) point of the sweep and the algorithms run on it.
struct Point {
  std::size_t tasks = 0;
  std::size_t procs = 0;
  std::vector<std::string> algorithms;
};

/// Least-squares slope of log(seconds) vs log(tasks) — the measured
/// scaling exponent of one (algorithm, processors) series.
double fit_exponent(const std::vector<Cell>& cells,
                    const std::string& algorithm, std::size_t procs) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const Cell& c : cells) {
    if (c.algorithm == algorithm && c.procs == procs && c.seconds > 0.0) {
      xs.push_back(std::log(static_cast<double>(c.tasks)));
      ys.push_back(std::log(c.seconds));
    }
  }
  if (xs.size() < 2) {
    return 0.0;
  }
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(xs.size());
  my /= static_cast<double>(xs.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    num += (xs[i] - mx) * (ys[i] - my);
    den += (xs[i] - mx) * (xs[i] - mx);
  }
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry("", &argc, argv);

  const bool full = env_flag("EDGESCHED_SCALE_FULL", false);
  std::vector<std::size_t> task_counts =
      full ? std::vector<std::size_t>{5000, 10000, 20000, 50000}
           : std::vector<std::size_t>{500, 1000, 2000, 4000};
  std::vector<std::size_t> proc_counts =
      full ? std::vector<std::size_t>{64, 256}
           : std::vector<std::size_t>{16, 64};
  std::vector<std::string> algorithms{"ba", "oihsa", "bbsa"};
  bool grid_overridden = false;
  if (const std::string v = env_string("EDGESCHED_SCALE_TASKS", "");
      !v.empty()) {
    task_counts = parse_sizes(v);
    grid_overridden = true;
  }
  if (const std::string v = env_string("EDGESCHED_SCALE_PROCS", "");
      !v.empty()) {
    proc_counts = parse_sizes(v);
    grid_overridden = true;
  }
  if (const std::string v = env_string("EDGESCHED_SCALE_ALGOS", "");
      !v.empty()) {
    algorithms = parse_names(v);
    grid_overridden = true;
  }
  // BA re-evaluates every processor per task against the link state, so
  // its frontier is lower; cap it rather than dropping the series.
  const auto ba_tasks_max = static_cast<std::size_t>(
      env_int("EDGESCHED_BA_TASKS_MAX", full ? 20000 : 4000));
  const auto reps = static_cast<std::size_t>(env_int("EDGESCHED_REPS", 1));
  const bool validate_runs = env_flag("EDGESCHED_VALIDATE", false);

  std::vector<Point> points;
  for (const std::size_t tasks : task_counts) {
    for (const std::size_t procs : proc_counts) {
      points.push_back(Point{tasks, procs, algorithms});
    }
  }
  // The default grid also carries one frontier cell, where §4.3 routing
  // is the largest phase of the schedule time; it is its own
  // (algorithm, 256) series, too short to fit an exponent.
  if (!full && !grid_overridden) {
    points.push_back(Point{10000, 256, {"oihsa", "bbsa"}});
  }

  std::cout << "== extension: scale frontier (tasks x processors) ==\n";
  std::cout << "algorithm, tasks, procs, seconds, makespan, edges, "
               "relaxations_per_routed_edge\n";

  svc::Counter& relaxations = obs::hot_counters().dijkstra_relaxations;
  svc::Counter& edges_routed = obs::hot_counters().edges_routed;
  std::vector<Cell> cells;
  for (const Point& point : points) {
    const std::size_t tasks = point.tasks;
    const std::size_t procs = point.procs;
    dag::LayeredDagParams params;
    params.num_tasks = tasks;
    Rng dag_rng(20260807 + tasks);
    const dag::TaskGraph graph = dag::random_layered(params, dag_rng);
    Rng topo_rng(7 + procs);
    const net::Topology topology = switched_topology(procs, topo_rng);
    for (const std::string& name : point.algorithms) {
      if (name == "ba" && tasks > ba_tasks_max) {
        std::cout << "ba, " << tasks << ", " << procs
                  << ", skipped (EDGESCHED_BA_TASKS_MAX)\n";
        continue;
      }
      const std::unique_ptr<sched::Scheduler> scheduler =
          sched::make_scheduler(name);
      Cell cell;
      cell.algorithm = name;
      cell.tasks = tasks;
      cell.procs = procs;
      cell.seconds = std::numeric_limits<double>::infinity();
      const std::uint64_t relaxations_before = relaxations.value();
      const std::uint64_t edges_before = edges_routed.value();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto begin = std::chrono::steady_clock::now();
        const sched::Schedule schedule =
            scheduler->schedule(graph, topology);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - begin)
                .count();
        cell.seconds = std::min(cell.seconds, seconds);
        cell.makespan = schedule.makespan();
        cell.edges = graph.num_edges();
        if (validate_runs) {
          sched::validate_or_throw(graph, topology, schedule);
        }
      }
      const std::uint64_t routed = edges_routed.value() - edges_before;
      if (routed > 0) {
        cell.relaxations_per_routed_edge =
            static_cast<double>(relaxations.value() - relaxations_before) /
            static_cast<double>(routed);
      }
      cells.push_back(cell);
      std::cout << cell.algorithm << ", " << cell.tasks << ", "
                << cell.procs << ", " << cell.seconds << ", "
                << cell.makespan << ", " << cell.edges << ", "
                << cell.relaxations_per_routed_edge << "\n";
    }
  }

  std::cout << "\nfitted exponents (time ~ tasks^k):\n";
  obs::JsonValue cells_json = obs::JsonValue::array();
  for (const Cell& c : cells) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("algorithm", c.algorithm);
    entry.set("tasks", c.tasks);
    entry.set("procs", c.procs);
    entry.set("seconds", c.seconds);
    entry.set("makespan", c.makespan);
    entry.set("edges", c.edges);
    entry.set("relaxations_per_routed_edge", c.relaxations_per_routed_edge);
    cells_json.push(std::move(entry));
  }
  obs::JsonValue exponents = obs::JsonValue::array();
  for (const std::string& name : algorithms) {
    for (const std::size_t procs : proc_counts) {
      const double k = fit_exponent(cells, name, procs);
      if (k != 0.0) {
        std::cout << "  " << name << " @ " << procs << " procs: " << k
                  << "\n";
        obs::JsonValue entry = obs::JsonValue::object();
        entry.set("algorithm", name);
        entry.set("procs", procs);
        entry.set("exponent", k);
        exponents.push(std::move(entry));
      }
    }
  }
  telemetry.report().root().set("cells", std::move(cells_json));
  telemetry.report().root().set("exponents", std::move(exponents));

  // Google-benchmark-shaped mirror of the cells so tools/bench_compare
  // can gate this sweep exactly like the micro benches.
  obs::JsonValue gbench = obs::JsonValue::object();
  obs::JsonValue context = obs::JsonValue::object();
  context.set("executable", "extension_scaling");
  gbench.set("context", std::move(context));
  obs::JsonValue benchmarks = obs::JsonValue::array();
  for (const Cell& c : cells) {
    obs::JsonValue entry = obs::JsonValue::object();
    std::ostringstream bench_name;
    bench_name << "scaling/" << c.algorithm << "/tasks:" << c.tasks
               << "/procs:" << c.procs;
    entry.set("name", bench_name.str());
    entry.set("run_type", "iteration");
    entry.set("iterations", 1);
    entry.set("real_time", c.seconds * 1e9);
    entry.set("cpu_time", c.seconds * 1e9);
    entry.set("time_unit", "ns");
    benchmarks.push(std::move(entry));
  }
  gbench.set("benchmarks", std::move(benchmarks));
  const std::string dir = env_string("EDGESCHED_BENCH_DIR", ".");
  const std::string gbench_path = dir + "/GBENCH_extension_scaling.json";
  std::ofstream out(gbench_path);
  if (!out) {
    std::cerr << "extension_scaling: cannot open " << gbench_path << "\n";
    return 1;
  }
  gbench.write(out, 2);
  out << "\n";
  std::cerr << "extension_scaling: wrote " << gbench_path << "\n";
  return 0;
}
