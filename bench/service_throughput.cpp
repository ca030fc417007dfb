// Service throughput: many distinct DAGs over one switched fabric
// through svc::SchedulerService, cold versus warm platform cache.
//
// This is the amortisation evidence for the PlatformContext split:
// sharing one context across jobs (`share_platform`, the default) must
// beat building a fresh one per job (`share_platform = false`, the cold
// baseline). A fresh context runs no route discovery up front, so what
// a shared one saves is the per-source route-table fills (one BFS per
// source processor BA routes from) and the pooled workspaces. Every DAG
// is distinct, so the schedule cache never hits — the measured gap is
// pure platform reuse, not result memoisation.
//
// Knobs (environment):
//   EDGESCHED_SERVICE_DAGS     DAGs per measured batch (default 48)
//   EDGESCHED_SERVICE_THREADS  service worker threads (default 4)
//   EDGESCHED_REPS             repetitions, best-of (default 3)
//   EDGESCHED_MIN_WARM_RATIO   fail (exit 1) if cold/warm falls below
//                              this ratio; 0 disables (CI sets 1.3)
//
// Outputs, to $EDGESCHED_BENCH_DIR (or the working directory):
//   BENCH_service_throughput.json   telemetry: per-mode timings + ratio
//   GBENCH_service_throughput.json  google-benchmark-shaped file for
//                                   tools/bench_compare (ns per DAG)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "obs/json.hpp"
#include "svc/scheduler_service.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

#include "telemetry.hpp"

namespace {

using namespace edgesched;

/// One batch: submit every DAG against the shared fabric and drain the
/// futures. Returns wall seconds for the whole batch.
double run_batch(svc::SchedulerService& service,
                 const std::vector<std::shared_ptr<const dag::TaskGraph>>&
                     graphs,
                 const std::shared_ptr<const net::Topology>& topology) {
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::future<svc::SchedulerService::SchedulePtr>> futures;
  futures.reserve(graphs.size());
  for (const auto& graph : graphs) {
    futures.push_back(service.submit(graph, topology, "ba"));
  }
  for (auto& future : futures) {
    if (future.get() == nullptr) {
      throw std::runtime_error("service_throughput: null schedule");
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::TelemetryScope telemetry("", &argc, argv);

  const auto num_dags =
      static_cast<std::size_t>(env_int("EDGESCHED_SERVICE_DAGS", 48));
  const auto threads =
      static_cast<std::size_t>(env_int("EDGESCHED_SERVICE_THREADS", 4));
  const auto reps = static_cast<std::size_t>(env_int("EDGESCHED_REPS", 3));
  const std::string min_ratio_env =
      env_string("EDGESCHED_MIN_WARM_RATIO", "");
  const double min_ratio =
      min_ratio_env.empty() ? 0.0 : std::stod(min_ratio_env);

  // One ~256-processor fat tree: large enough that each per-source
  // route fill (a BFS plus 255 routes) is visible next to scheduling one
  // modest DAG across it.
  Rng topo_rng(20260807);
  const auto topology = std::make_shared<const net::Topology>(
      net::fat_tree(16, 16, net::SpeedConfig{}, topo_rng));

  // Distinct seeds per DAG so no two request fingerprints collide and
  // the schedule cache stays cold in both modes.
  std::vector<std::shared_ptr<const dag::TaskGraph>> graphs;
  graphs.reserve(num_dags);
  for (std::size_t i = 0; i < num_dags; ++i) {
    Rng dag_rng(1000 + i);
    dag::LayeredDagParams params;
    params.num_tasks = static_cast<std::size_t>(
        dag_rng.uniform_int(40, 60));
    graphs.push_back(std::make_shared<const dag::TaskGraph>(
        dag::random_layered(params, dag_rng)));
  }
  // Separate-seed DAG used to prewarm the platform cache in warm mode
  // without touching any measured request fingerprint.
  Rng prewarm_rng(999);
  dag::LayeredDagParams prewarm_params;
  prewarm_params.num_tasks = 40;
  const auto prewarm_graph = std::make_shared<const dag::TaskGraph>(
      dag::random_layered(prewarm_params, prewarm_rng));

  std::cout << "== service throughput: " << num_dags << " DAGs over one "
            << topology->num_processors() << "-processor fat tree, "
            << threads << " threads, best of " << reps << " ==\n";

  // Fresh service per repetition so result caches never carry over
  // between reps; best-of per mode absorbs scheduler jitter.
  double cold_seconds = std::numeric_limits<double>::infinity();
  double warm_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    {
      svc::ServiceConfig config;
      config.threads = threads;
      config.share_platform = false;
      svc::SchedulerService service(config);
      cold_seconds =
          std::min(cold_seconds, run_batch(service, graphs, topology));
    }
    {
      svc::ServiceConfig config;
      config.threads = threads;
      svc::SchedulerService service(config);
      if (service.submit(prewarm_graph, topology, "ba").get() == nullptr) {
        std::cerr << "service_throughput: prewarm failed\n";
        return 1;
      }
      warm_seconds =
          std::min(warm_seconds, run_batch(service, graphs, topology));
    }
  }

  const double ratio =
      warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  const double cold_ns_per_dag =
      cold_seconds * 1e9 / static_cast<double>(num_dags);
  const double warm_ns_per_dag =
      warm_seconds * 1e9 / static_cast<double>(num_dags);
  std::cout << "cold (rebuild platform per job): " << cold_seconds
            << " s  (" << cold_ns_per_dag / 1e6 << " ms/DAG)\n";
  std::cout << "warm (shared platform cache):    " << warm_seconds
            << " s  (" << warm_ns_per_dag / 1e6 << " ms/DAG)\n";
  std::cout << "warm-over-cold speedup: " << ratio << "x\n";

  telemetry.report().root().set("dags", num_dags);
  telemetry.report().root().set("threads", threads);
  telemetry.report().root().set("processors", topology->num_processors());
  telemetry.report().root().set("cold_seconds", cold_seconds);
  telemetry.report().root().set("warm_seconds", warm_seconds);
  telemetry.report().root().set("warm_over_cold", ratio);

  // Google-benchmark-shaped mirror so tools/bench_compare gates the two
  // series exactly like the micro benches.
  obs::JsonValue gbench = obs::JsonValue::object();
  obs::JsonValue context = obs::JsonValue::object();
  context.set("executable", "service_throughput");
  gbench.set("context", std::move(context));
  obs::JsonValue benchmarks = obs::JsonValue::array();
  const std::pair<const char*, double> rows[] = {
      {"service_throughput/cold", cold_ns_per_dag},
      {"service_throughput/warm", warm_ns_per_dag},
  };
  for (const auto& [name, ns] : rows) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("name", name);
    entry.set("run_type", "iteration");
    entry.set("iterations", 1);
    entry.set("real_time", ns);
    entry.set("cpu_time", ns);
    entry.set("time_unit", "ns");
    benchmarks.push(std::move(entry));
  }
  gbench.set("benchmarks", std::move(benchmarks));
  const std::string dir = env_string("EDGESCHED_BENCH_DIR", ".");
  const std::string gbench_path = dir + "/GBENCH_service_throughput.json";
  std::ofstream out(gbench_path);
  if (!out) {
    std::cerr << "service_throughput: cannot open " << gbench_path << "\n";
    return 1;
  }
  gbench.write(out, 2);
  out << "\n";
  std::cerr << "service_throughput: wrote " << gbench_path << "\n";

  if (min_ratio > 0.0 && ratio < min_ratio) {
    std::cerr << "service_throughput: warm-over-cold " << ratio
              << "x below required " << min_ratio << "x\n";
    return 1;
  }
  return 0;
}
