// edgesched_cli — schedule a task graph onto a network from the command
// line, or replay a schedule through the discrete-event executor.
//
// Usage:
//   edgesched_cli --graph FILE [--graph-format text|stg]
//                 (--topology FILE | --wan N | --star N | --ring N |
//                  --fully-connected N)
//                 [--heterogeneous] [--seed S]
//                 [--algorithm NAME] [--list-algorithms]
//                 [--ccr X] [--output schedule|metrics|gantt|trace|dot]
//                 [--intra-threads N]
//
//   edgesched_cli run <same instance flags>
//                 [--jitter X] [--bw-jitter X] [--exec-seed S]
//                 [--fault-rate R] [--link-fault-rate R]
//                 [--fault-permanent F] [--fault-seed S]
//                 [--recovery fail-stop|retry|reschedule]
//                 [--recovery-algorithm NAME]
//                 [--dispatch timetable|event-driven]
//                 [--report-json FILE] [--postmortem FILE]
//                 [--merged-trace FILE] [--metrics-json FILE]
//
// The `run` subcommand schedules the instance, then executes the plan in
// virtual time under duration jitter (U(1±jitter)) and hazard-sampled
// faults (R failures per resource per unit time over a horizon of four
// predicted makespans), printing the achieved-vs-predicted summary.
// `--report-json` writes the full ExecutionReport document ("-" =
// stdout).
//
// Observability (both modes; every artifact of one invocation carries
// the same run_id, so they cross-correlate):
//   --trace FILE      runtime tracer (full mode) Chrome trace of the
//                     algorithm/executor running
//   --decisions FILE  streaming decision-log JSONL
//   --metrics FILE    scheduler counter dump (text exposition)
// `run`-only artifacts:
//   --metrics-json FILE   obs::MetricsSnapshot JSON document
//   --postmortem FILE     flight-recorder dump of the run
//   --merged-trace FILE   planned/executed/faults merged Perfetto
//                         timeline (exec/trace_merge)
// All FILE arguments accept "-" for stdout.
//
// Algorithm names come from the central registry (sched/registry.hpp);
// `--list-algorithms` prints every key with its policy bundle.
//
// Examples:
//   edgesched_cli --graph wf.txt --wan 16 --algorithm oihsa
//                 --output metrics
//   edgesched_cli run --graph wf.txt --wan 16 --algorithm oihsa
//                 --jitter 0.2 --fault-rate 0.001 --recovery reschedule
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "dag/properties.hpp"
#include "dag/serialization.hpp"
#include "exec/executor.hpp"
#include "exec/trace_merge.hpp"
#include "net/builders.hpp"
#include "net/serialization.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "sched/intra_run.hpp"
#include "sched/metrics.hpp"
#include "sched/registry.hpp"
#include "sched/trace_export.hpp"
#include "sched/validator.hpp"

namespace {

using namespace edgesched;

struct Args {
  bool run = false;  ///< `run` subcommand: execute the schedule
  std::string graph_file;
  std::string graph_format = "text";
  std::string topology_file;
  std::string builder;
  std::size_t builder_size = 8;
  bool heterogeneous = false;
  std::uint64_t seed = 1;
  std::string algorithm = "oihsa";
  double ccr = 0.0;  // 0 = keep the file's costs
  std::string output = "schedule";

  // `run` subcommand options.
  double jitter = 0.0;
  double bw_jitter = 0.0;
  std::uint64_t exec_seed = 1;
  double fault_rate = 0.0;       ///< processor failures / unit time
  double link_fault_rate = 0.0;  ///< link failures / unit time
  double fault_permanent = 0.3;  ///< fraction of sampled faults
  std::uint64_t fault_seed = 1;
  std::string recovery = "reschedule";
  std::string recovery_algorithm;
  std::string dispatch = "timetable";
  std::string report_json;  ///< "" = none, "-" = stdout

  // Observability artifacts ("" = none, "-" = stdout).
  std::string trace_file;      ///< runtime tracer Chrome trace
  std::string decisions_file;  ///< streaming decision-log JSONL
  std::string metrics_file;    ///< counter text dump
  // `run`-only artifacts.
  std::string metrics_json_file;  ///< MetricsSnapshot JSON
  std::string postmortem_file;    ///< flight-recorder dump
  std::string merged_trace_file;  ///< planned/executed merged timeline
};

[[noreturn]] void usage(const std::string& error = {}) {
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n\n";
  }
  std::cerr
      << "usage: edgesched_cli --graph FILE [--graph-format text|stg]\n"
         "         (--topology FILE | --wan N | --star N | --ring N |\n"
         "          --fully-connected N) [--heterogeneous] [--seed S]\n"
         "         [--algorithm NAME] [--list-algorithms]\n"
         "         [--ccr X]\n"
         "         [--output schedule|metrics|gantt|trace|dot]\n"
         "         [--intra-threads N]  (GA/SA worker lanes, 0 = all\n"
         "          cores; schedules are byte-identical at every N;\n"
         "          default 1 or EDGESCHED_INTRA_THREADS)\n"
         "   or: edgesched_cli run <instance flags>\n"
         "         [--jitter X] [--bw-jitter X] [--exec-seed S]\n"
         "         [--fault-rate R] [--link-fault-rate R]\n"
         "         [--fault-permanent F] [--fault-seed S]\n"
         "         [--recovery fail-stop|retry|reschedule]\n"
         "         [--recovery-algorithm NAME]\n"
         "         [--dispatch timetable|event-driven]\n"
         "         [--report-json FILE] [--postmortem FILE]\n"
         "         [--merged-trace FILE] [--metrics-json FILE]\n"
         "observability (both modes, \"-\" = stdout):\n"
         "         [--trace FILE] [--decisions FILE] [--metrics FILE]\n"
         "algorithms (see --list-algorithms for the policy bundles):\n"
         "  ";
  bool first = true;
  for (const sched::AlgorithmEntry& entry : sched::algorithm_registry()) {
    std::cerr << (first ? "" : " | ") << entry.key;
    first = false;
  }
  std::cerr << "\n";
  std::exit(error.empty() ? 0 : 2);
}

/// Parses the value of an unsigned flag: decimal digits only (no sign,
/// no surrounding characters) and in range, else a usage error.
template <typename Unsigned>
Unsigned parse_unsigned(const std::string& flag, const std::string& text) {
  Unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    usage(flag + ": expected an unsigned integer, got '" + text + "'");
  }
  return value;
}

/// Parses the value of a real-valued flag: the whole text must be one
/// finite, in-range number, else a usage error.
double parse_finite(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) {
    usage(flag + ": expected a finite number, got '" + text + "'");
  }
  return value;
}

Args parse(int argc, char** argv) {
  Args args;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      usage(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  int first = 1;
  if (argc > 1 && std::string(argv[1]) == "run") {
    args.run = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--graph") {
      args.graph_file = next(i);
    } else if (flag == "--graph-format") {
      args.graph_format = next(i);
    } else if (flag == "--topology") {
      args.topology_file = next(i);
    } else if (flag == "--wan" || flag == "--star" || flag == "--ring" ||
               flag == "--fully-connected") {
      args.builder = flag.substr(2);
      args.builder_size = parse_unsigned<std::size_t>(flag, next(i));
    } else if (flag == "--heterogeneous") {
      args.heterogeneous = true;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned<std::uint64_t>(flag, next(i));
    } else if (flag == "--algorithm") {
      args.algorithm = next(i);
    } else if (flag == "--list-algorithms") {
      std::cout << sched::algorithm_list();
      std::exit(0);
    } else if (flag == "--ccr") {
      args.ccr = parse_finite(flag, next(i));
      if (args.ccr <= 0.0) {
        usage("--ccr: must be > 0");
      }
    } else if (flag == "--output") {
      args.output = next(i);
    } else if (flag == "--intra-threads") {
      // Process-global: GA/SA runs, direct or as recovery replans,
      // evaluate across this many workers.
      sched::set_intra_run_threads(
          parse_unsigned<std::size_t>(flag, next(i)));
    } else if (args.run && flag == "--jitter") {
      args.jitter = parse_finite(flag, next(i));
    } else if (args.run && flag == "--bw-jitter") {
      args.bw_jitter = parse_finite(flag, next(i));
    } else if (args.run && flag == "--exec-seed") {
      args.exec_seed = parse_unsigned<std::uint64_t>(flag, next(i));
    } else if (args.run && flag == "--fault-rate") {
      args.fault_rate = parse_finite(flag, next(i));
    } else if (args.run && flag == "--link-fault-rate") {
      args.link_fault_rate = parse_finite(flag, next(i));
    } else if (args.run && flag == "--fault-permanent") {
      args.fault_permanent = parse_finite(flag, next(i));
      if (args.fault_permanent < 0.0 || args.fault_permanent > 1.0) {
        usage("--fault-permanent: must be in [0, 1]");
      }
    } else if (args.run && flag == "--fault-seed") {
      args.fault_seed = parse_unsigned<std::uint64_t>(flag, next(i));
    } else if (args.run && flag == "--recovery") {
      args.recovery = next(i);
    } else if (args.run && flag == "--recovery-algorithm") {
      args.recovery_algorithm = next(i);
    } else if (args.run && flag == "--dispatch") {
      args.dispatch = next(i);
    } else if (args.run && flag == "--report-json") {
      args.report_json = next(i);
    } else if (flag == "--trace") {
      args.trace_file = next(i);
    } else if (flag == "--decisions") {
      args.decisions_file = next(i);
    } else if (flag == "--metrics") {
      args.metrics_file = next(i);
    } else if (args.run && flag == "--metrics-json") {
      args.metrics_json_file = next(i);
    } else if (args.run && flag == "--postmortem") {
      args.postmortem_file = next(i);
    } else if (args.run && flag == "--merged-trace") {
      args.merged_trace_file = next(i);
    } else if (flag == "--help" || flag == "-h") {
      usage();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.graph_file.empty()) {
    usage("--graph is required");
  }
  if (args.topology_file.empty() && args.builder.empty()) {
    usage("one of --topology/--wan/--star/--ring/--fully-connected is "
          "required");
  }
  return args;
}

dag::TaskGraph load_graph(const Args& args) {
  std::ifstream in(args.graph_file);
  if (!in) {
    usage("cannot open graph file " + args.graph_file);
  }
  dag::TaskGraph graph = args.graph_format == "stg"
                             ? dag::read_stg(in)
                             : dag::read_text(in);
  if (args.ccr > 0.0) {
    dag::rescale_to_ccr(graph, args.ccr);
  }
  return graph;
}

net::Topology load_topology(const Args& args) {
  if (!args.topology_file.empty()) {
    std::ifstream in(args.topology_file);
    if (!in) {
      usage("cannot open topology file " + args.topology_file);
    }
    return net::read_text(in);
  }
  Rng rng(args.seed);
  net::SpeedConfig speeds;
  speeds.heterogeneous = args.heterogeneous;
  if (args.builder == "wan") {
    net::RandomWanParams params;
    params.num_processors = args.builder_size;
    params.speeds = speeds;
    return net::random_wan(params, rng);
  }
  if (args.builder == "star") {
    return net::switched_star(args.builder_size, speeds, rng);
  }
  if (args.builder == "ring") {
    return net::ring(args.builder_size, speeds, rng);
  }
  return net::fully_connected(args.builder_size, speeds, rng);
}

std::unique_ptr<sched::Scheduler> make_scheduler(const Args& args) {
  if (const sched::AlgorithmEntry* entry =
          sched::find_algorithm(args.algorithm)) {
    return entry->make();
  }
  usage("unknown algorithm " + args.algorithm);
}

/// Flushes `out`; false with "error: cannot write NAME" on stderr when
/// any write to it failed.
bool check_written(std::ostream& out, const std::string& name) {
  out.flush();
  if (!out) {
    std::cerr << "error: cannot write " << name << "\n";
    return false;
  }
  return true;
}

/// Opens `path` ("-" = stdout) and hands the stream to `fn`; false with
/// a message on stderr when the file cannot be opened or written.
bool write_artifact(const std::string& path,
                    const std::function<void(std::ostream&)>& fn) {
  if (path == "-") {
    fn(std::cout);
    return check_written(std::cout, "standard output");
  }
  std::ofstream out(path);
  if (out) {
    fn(out);
  }
  return check_written(out, path);
}

int run_schedule(const Args& args, const dag::TaskGraph& graph,
                 const net::Topology& topology,
                 const sched::Schedule& schedule) {
  exec::ExecutionOptions options;
  options.model.duration_spread = args.jitter;
  options.model.bandwidth_spread = args.bw_jitter;
  options.model.seed = args.exec_seed;
  options.policy = exec::parse_recovery_policy(args.recovery);
  options.dispatch = exec::parse_dispatch_mode(args.dispatch);
  options.recovery_algorithm = args.recovery_algorithm;
  if (args.fault_rate > 0.0 || args.link_fault_rate > 0.0) {
    // Hazard horizon: sample failures well past the predicted makespan
    // so recovery epochs still see faults.
    exec::HazardConfig hazard;
    hazard.processor_rate = args.fault_rate;
    hazard.link_rate = args.link_fault_rate;
    hazard.horizon = 4.0 * schedule.makespan();
    hazard.permanent_fraction = args.fault_permanent;
    hazard.mean_repair = 0.05 * schedule.makespan();
    hazard.seed = args.fault_seed;
    options.faults = exec::FaultPlan::sampled(topology, hazard);
  }
  const exec::ExecutionReport report =
      exec::execute(graph, topology, schedule, options);
  std::cout << report.summary() << "\n";

  bool ok = true;
  if (!args.report_json.empty()) {
    ok &= write_artifact(args.report_json, [&](std::ostream& os) {
      os << report.to_json().dump() << "\n";
    });
  }
  if (!args.metrics_json_file.empty()) {
    ok &= write_artifact(args.metrics_json_file, [](std::ostream& os) {
      os << obs::MetricsSnapshot::capture(obs::global_metrics())
                .to_json()
                .dump()
         << "\n";
    });
  }
  if (!args.merged_trace_file.empty()) {
    ok &= write_artifact(args.merged_trace_file, [&](std::ostream& os) {
      exec::write_merged_trace(os, graph, topology, schedule, report);
    });
  }
  if (!args.postmortem_file.empty()) {
    ok &= write_artifact(args.postmortem_file, [](std::ostream& os) {
      obs::flight_recorder().write_postmortem(os, "cli_request");
    });
  }
  if (!ok) {
    return 1;
  }
  return report.completed ? 0 : 3;
}

int invoke(const Args& args) {
  const dag::TaskGraph graph = load_graph(args);
  const net::Topology topology = load_topology(args);
  const auto scheduler = make_scheduler(args);
  const sched::Schedule schedule = scheduler->schedule(graph, topology);
  try {
    sched::validate_or_throw(graph, topology, schedule);
  } catch (...) {
    // Black-box dump on validator failure (written only when
    // EDGESCHED_POSTMORTEM_DIR is set).
    obs::flight_recorder().maybe_write_postmortem("validator_failure");
    throw;
  }

  if (args.run) {
    return run_schedule(args, graph, topology, schedule);
  }
  if (args.output == "schedule") {
    std::cout << schedule.to_string(graph, topology);
  } else if (args.output == "metrics") {
    std::cout << sched::to_string(
        sched::compute_metrics(graph, topology, schedule));
  } else if (args.output == "gantt") {
    sched::write_ascii_gantt(std::cout, graph, topology, schedule);
  } else if (args.output == "trace") {
    sched::write_chrome_trace(std::cout, graph, topology, schedule);
  } else if (args.output == "dot") {
    dag::write_dot(std::cout, graph);
  } else {
    usage("unknown output " + args.output);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // One run scope for the whole invocation: every trace span, decision
  // line, flight entry and the execution report carry the same run_id
  // (always 1 here — the CLI mints the process's first ID, which keeps
  // same-seed artifact dumps byte-identical).
  const obs::ScopedRunId run_scope(obs::mint_run_id());

  // Declaration order matters: the scope uninstalls before the log and
  // its sink stream destruct.
  std::optional<std::ofstream> decisions_out;
  std::optional<obs::DecisionLog> decision_log;
  std::optional<obs::ScopedDecisionLog> decision_scope;
  if (!args.decisions_file.empty()) {
    std::ostream* sink = &std::cout;
    if (args.decisions_file != "-") {
      decisions_out.emplace(args.decisions_file);
      if (!*decisions_out) {
        std::cerr << "error: cannot write " << args.decisions_file << "\n";
        return 1;
      }
      sink = &*decisions_out;
    }
    decision_log.emplace(*sink);
    decision_scope.emplace(*decision_log);
  }
  if (!args.trace_file.empty()) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_mode(obs::TraceMode::kFull);
  }

  int status = 0;
  try {
    status = invoke(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    status = 1;
  }

  if (!args.trace_file.empty()) {
    if (!write_artifact(args.trace_file, [](std::ostream& os) {
          obs::Tracer::instance().write_chrome_trace(os);
        })) {
      status = status == 0 ? 1 : status;
    }
    obs::Tracer::instance().set_mode(obs::TraceMode::kDisabled);
  }
  if (!args.metrics_file.empty()) {
    if (!write_artifact(args.metrics_file, [](std::ostream& os) {
          os << obs::global_metrics().text_dump();
        })) {
      status = status == 0 ? 1 : status;
    }
  }
  // The decision log and the --output modes stream as they go; a full
  // disk shows only here.
  if (decisions_out && !check_written(*decisions_out, args.decisions_file)) {
    status = status == 0 ? 1 : status;
  }
  if (!check_written(std::cout, "standard output")) {
    status = status == 0 ? 1 : status;
  }
  return status;
}
