// Concurrent scheduling service demo.
//
// Drives svc::SchedulerService with a burst of concurrent requests —
// several workflows × several algorithms, each submitted multiple times —
// and prints the resulting cache-hit report and metrics dump. Usage:
//
//   service_demo [--trace <file>] [--metrics] [--snapshots <file>]
//                [threads] [rounds]
//
// `threads` defaults to the hardware concurrency, `rounds` (how many
// times the whole request mix is resubmitted) to 3; every round after the
// first is served entirely from the schedule cache. `--trace` records the
// run with the obs tracer and writes a Chrome trace-event JSON (load it
// in Perfetto to see the pool workers executing scheduler phases);
// `--metrics` appends the global hot-path counter dump. `--snapshots`
// runs an obs::PeriodicSnapshotter over the service's metrics registry
// for the demo's duration, appending one metrics-snapshot JSON document
// per line (at least one line is always written).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/scheduler_service.hpp"
#include "util/rng.hpp"

using namespace edgesched;

int main(int argc, char** argv) {
  std::string trace_path;
  std::string snapshots_path;
  bool dump_metrics = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshots") == 0 && i + 1 < argc) {
      snapshots_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t threads =
      positional.size() > 0
          ? static_cast<std::size_t>(std::atoi(positional[0]))
          : 0;
  const std::size_t rounds =
      positional.size() > 1
          ? static_cast<std::size_t>(std::atoi(positional[1]))
          : 3;
  if (!trace_path.empty()) {
    obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
  }

  svc::SchedulerService service(
      {.threads = threads, .cache_capacity = 256, .validate = true});
  std::cout << "scheduler service: " << service.num_threads()
            << " worker(s), cache capacity "
            << service.cache().capacity() << "\n\n";

  // The request mix: four workflows on two machines under three
  // algorithms. shared_ptr inputs mean zero copies per request.
  Rng rng(42);
  std::vector<std::shared_ptr<const dag::TaskGraph>> graphs;
  graphs.push_back(std::make_shared<const dag::TaskGraph>(
      dag::fork_join(12, 4.0, 8.0)));
  graphs.push_back(
      std::make_shared<const dag::TaskGraph>(dag::chain(16, 3.0, 5.0)));
  dag::LayeredDagParams params;
  params.num_tasks = 40;
  graphs.push_back(std::make_shared<const dag::TaskGraph>(
      dag::random_layered(params, rng)));
  params.num_tasks = 60;
  graphs.push_back(std::make_shared<const dag::TaskGraph>(
      dag::random_layered(params, rng)));

  std::vector<std::shared_ptr<const net::Topology>> machines;
  machines.push_back(std::make_shared<const net::Topology>(
      net::switched_star(6, net::SpeedConfig{}, rng)));
  machines.push_back(std::make_shared<const net::Topology>(
      net::fat_tree(3, 2, net::SpeedConfig{}, rng)));

  const std::vector<std::string> algorithms = {"ba", "oihsa", "bbsa"};

  // The snapshotter samples the service's registry while the burst runs;
  // its destructor after the loop always appends one final snapshot, so
  // the JSONL file is never empty even for very short demos.
  std::ofstream snapshots_out;
  std::optional<obs::PeriodicSnapshotter> snapshotter;
  if (!snapshots_path.empty()) {
    snapshots_out.open(snapshots_path);
    if (!snapshots_out) {
      std::cerr << "cannot open " << snapshots_path << "\n";
      return 1;
    }
    snapshotter.emplace(service.metrics(), snapshots_out,
                        std::chrono::milliseconds(50));
  }

  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::future<svc::SchedulerService::SchedulePtr>> futures;
    for (const auto& graph : graphs) {
      for (const auto& machine : machines) {
        for (const std::string& algorithm : algorithms) {
          futures.push_back(service.submit(graph, machine, algorithm));
        }
      }
    }
    double makespan_sum = 0.0;
    for (auto& future : futures) {
      makespan_sum += future.get()->makespan();
    }
    const svc::CacheStats stats = service.cache().stats();
    std::cout << "round " << round + 1 << ": " << futures.size()
              << " requests, makespan sum " << std::fixed
              << std::setprecision(2) << makespan_sum
              << ", cache hits so far " << stats.hits << "/"
              << stats.hits + stats.misses << "\n";
  }

  if (snapshotter) {
    snapshotter.reset();  // joins the thread and writes the final line
    snapshots_out.flush();
    if (!snapshots_out) {
      std::cerr << "error: cannot write " << snapshots_path << "\n";
      return 1;
    }
    std::cout << "\nwrote snapshots " << snapshots_path << "\n";
  }

  const svc::CacheStats stats = service.cache().stats();
  std::cout << "\n-- cache-hit report --\n"
            << "lookups    " << stats.hits + stats.misses << "\n"
            << "hits       " << stats.hits << "\n"
            << "misses     " << stats.misses << "\n"
            << "hit rate   " << std::fixed << std::setprecision(1)
            << 100.0 * stats.hit_rate() << " %\n"
            << "entries    " << service.cache().size() << "\n"
            << "evictions  " << stats.evictions << "\n";

  std::cout << "\n-- metrics --\n" << service.metrics().text_dump();

  if (dump_metrics) {
    std::cout << "\n-- global hot-path counters --\n"
              << obs::global_metrics().text_dump();
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (out) {
      obs::Tracer::instance().write_chrome_trace(out);
      out.flush();
    }
    if (!out) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      return 1;
    }
    std::cout << "\nwrote trace " << trace_path << " ("
              << obs::Tracer::instance().event_count() << " events, "
              << obs::Tracer::instance().thread_count() << " threads)\n";
  }

  // Every round after the first must be pure cache hits.
  const std::size_t per_round =
      graphs.size() * machines.size() * algorithms.size();
  if (rounds > 1 && stats.hits != (rounds - 1) * per_round) {
    std::cerr << "unexpected hit count\n";
    return 1;
  }
  return 0;
}
