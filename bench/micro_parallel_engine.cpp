// Intra-run parallelism thread sweep: GA and SA at 1/2/4/8 worker lanes.
//
// The metaheuristics are where intra-run lanes pay: the GA evaluates
// its whole population (and each generation's offspring) as independent
// fixed-assignment schedules, the SA evaluates batches of speculative
// neighbors. Both promise byte-identical results at every lane count
// (sched/intra_run.hpp, docs/parallelism.md), so the only question left
// is how much wall-clock the lanes buy. The list-scheduling engine
// itself runs serially; request-level parallelism (svc::ThreadPool,
// sim::runner) is what uses the cores there.
//
// Each (algorithm, threads) cell schedules the same DAG batch through
// one shared PlatformContext and reports best-of ns per schedule. The
// sweep also cross-checks the determinism contract: every cell's
// makespans must equal the one-lane cell's bit for bit.
//
// Knobs (environment):
//   EDGESCHED_PAR_DAGS            DAGs per measured batch (default 4)
//   EDGESCHED_PAR_TASKS           tasks per DAG (default 40)
//   EDGESCHED_REPS                repetitions, best-of (default 3)
//   EDGESCHED_MIN_PARALLEL_SPEEDUP  fail (exit 1) if the GA's 4-thread
//                                 speedup falls below this; 0 disables
//                                 (CI sets it on multi-core runners; a
//                                 1-core container cannot measure a
//                                 speedup)
//
// Outputs, to $EDGESCHED_BENCH_DIR (or the working directory):
//   BENCH_micro_parallel_engine.json   telemetry: per-cell timings
//   GBENCH_micro_parallel_engine.json  google-benchmark-shaped file for
//                                      tools/bench_compare (ns/schedule)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "obs/json.hpp"
#include "sched/intra_run.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

#include "telemetry.hpp"

namespace {

using namespace edgesched;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr const char* kAlgorithms[] = {"ga", "sa"};

struct Cell {
  std::string algorithm;
  std::size_t threads = 0;
  double ns_per_schedule = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry("", &argc, argv);

  const auto num_dags =
      static_cast<std::size_t>(env_int("EDGESCHED_PAR_DAGS", 4));
  const auto num_tasks =
      static_cast<std::size_t>(env_int("EDGESCHED_PAR_TASKS", 40));
  const auto reps = static_cast<std::size_t>(env_int("EDGESCHED_REPS", 3));
  const std::string floor_env =
      env_string("EDGESCHED_MIN_PARALLEL_SPEEDUP", "");
  const double speedup_floor =
      floor_env.empty() ? 0.0 : std::stod(floor_env);

  std::vector<dag::TaskGraph> graphs;
  graphs.reserve(num_dags);
  for (std::size_t i = 0; i < num_dags; ++i) {
    Rng dag_rng(1000 + i);
    dag::LayeredDagParams params;
    params.num_tasks = num_tasks;
    dag::TaskGraph graph = dag::random_layered(params, dag_rng);
    dag::rescale_to_ccr(graph, 5.0);
    graphs.push_back(std::move(graph));
  }
  // A contended 8-processor fabric, the metaheuristics' home ground
  // (bench/ablation_metaheuristics uses 4 and 8).
  Rng topo_rng(20260807);
  net::RandomWanParams wan;
  wan.num_processors = 8;
  const net::Topology topology = net::random_wan(wan, topo_rng);
  const sched::PlatformContext platform(topology);

  std::cout << "== parallel metaheuristic sweep: " << num_dags
            << " DAGs x " << num_tasks << " tasks, "
            << topology.num_processors() << " processors, best of "
            << reps << " ==\n";

  std::vector<Cell> cells;
  std::map<std::string, double> speedup_4t;  ///< by registry key
  for (const char* key : kAlgorithms) {
    const sched::AlgorithmEntry* entry = sched::find_algorithm(key);
    if (entry == nullptr) {
      std::cerr << "micro_parallel_engine: " << key << " not registered\n";
      return 1;
    }
    const std::unique_ptr<sched::Scheduler> scheduler = entry->make();

    // One-lane reference makespans: the determinism cross-check below
    // compares every cell against these bit for bit.
    std::vector<double> reference;
    {
      const sched::ScopedIntraThreads serial(1);
      for (const dag::TaskGraph& graph : graphs) {
        reference.push_back(
            scheduler->schedule(graph, platform).makespan());
      }
    }

    double serial_ns = 0.0;
    for (const std::size_t threads : kThreadCounts) {
      const sched::ScopedIntraThreads scoped(threads);
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto begin = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < graphs.size(); ++i) {
          const double makespan =
              scheduler->schedule(graphs[i], platform).makespan();
          if (std::memcmp(&reference[i], &makespan, sizeof(double)) !=
              0) {
            std::cerr << "micro_parallel_engine: " << entry->display
                      << " at " << threads
                      << " threads diverged from one lane on DAG " << i
                      << "\n";
            return 1;
          }
        }
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - begin)
                      .count());
      }
      const double ns =
          best * 1e9 / static_cast<double>(graphs.size());
      cells.push_back(Cell{key, threads, ns});
      if (threads == 1) {
        serial_ns = ns;
      }
      if (threads == 4) {
        speedup_4t[key] = serial_ns / ns;
      }
      std::cout << entry->display << ", " << threads
                << " threads: " << ns / 1e6 << " ms/schedule\n";
    }
  }
  const double ga_speedup = speedup_4t["ga"];
  std::cout << "4-thread speedup: GA " << ga_speedup << "x, SA "
            << speedup_4t["sa"] << "x\n";

  for (const Cell& cell : cells) {
    telemetry.report().root().set(
        cell.algorithm + "_t" + std::to_string(cell.threads) + "_ns",
        cell.ns_per_schedule);
  }
  telemetry.report().root().set("dags", num_dags);
  telemetry.report().root().set("tasks", num_tasks);
  telemetry.report().root().set("speedup_4t_ga", ga_speedup);
  telemetry.report().root().set("speedup_4t_sa", speedup_4t["sa"]);

  // Google-benchmark-shaped mirror so tools/bench_compare gates every
  // cell like the other micros.
  obs::JsonValue gbench = obs::JsonValue::object();
  obs::JsonValue context = obs::JsonValue::object();
  context.set("executable", "micro_parallel_engine");
  gbench.set("context", std::move(context));
  obs::JsonValue benchmarks = obs::JsonValue::array();
  for (const Cell& cell : cells) {
    obs::JsonValue row = obs::JsonValue::object();
    row.set("name", "micro_parallel_engine/" + cell.algorithm +
                        "/threads:" + std::to_string(cell.threads));
    row.set("run_type", "iteration");
    row.set("iterations", 1);
    row.set("real_time", cell.ns_per_schedule);
    row.set("cpu_time", cell.ns_per_schedule);
    row.set("time_unit", "ns");
    benchmarks.push(std::move(row));
  }
  gbench.set("benchmarks", std::move(benchmarks));
  const std::string dir = env_string("EDGESCHED_BENCH_DIR", ".");
  const std::string gbench_path =
      dir + "/GBENCH_micro_parallel_engine.json";
  std::ofstream out(gbench_path);
  if (!out) {
    std::cerr << "micro_parallel_engine: cannot open " << gbench_path
              << "\n";
    return 1;
  }
  gbench.write(out, 2);
  out << "\n";
  std::cerr << "micro_parallel_engine: wrote " << gbench_path << "\n";

  if (speedup_floor > 0.0 && ga_speedup < speedup_floor) {
    std::cerr << "micro_parallel_engine: GA 4-thread speedup "
              << ga_speedup << "x below required " << speedup_floor
              << "x\n";
    return 1;
  }
  return 0;
}
