// edgesched benchmark harness: one process runs one workload for one seed
// and prints every metric as a text line, then one JSON result line.
//
//   edgesched_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1>
//
// --trace 0 measures with the program's defaults (tracer disabled) and
// puts the end-to-end metrics in the JSON line; --trace 1 repeats the
// measured phase untraced and then under the aggregate tracer, and puts
// the per-layer metrics there. See README.md for the workloads.
#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// The metric sets the JSON line carries, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",          "tasks_per_s",   "latency_p50_ms", "latency_p99_ms",
    "makespan_over_lb", "exec_slowdown", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "net.platform_build_ms",
    "net.relaxations_per_routed_edge",
    "net.route_edge_s",
    "net.route_cache_hit_ratio",
    "net.route_memo_hit_ratio",
    "timeline.gap_steps_per_probe",
    "timeline.scan_steps_per_optimal_probe",
    "timeline.deferral_yield",
    "timeline.bandwidth_probes_per_routed_edge",
    "sched.schedule_ms_p50",
    "sched.candidates_per_task",
    "sched.select_processor_s",
    "sched.priorities_s",
    "sched.self_s",
    "sched.unattributed_frac",
    "exec.events_per_task",
    "exec.faults_injected",
    "exec.retries",
    "exec.reschedules",
    "svc.schedule_cache_hit_ratio",
    "svc.platform_cache_hit_ratio",
    "svc.backlog_max",
    "dag.fingerprint_us",
    "obs.trace_overhead_frac"};

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed;
  std::uint64_t h = edgesched::splitmix64(state);
  state = h ^ (a + 0x9e3779b97f4a7c15ULL);
  h = edgesched::splitmix64(state);
  state = h ^ (b + 0x632be59bd9b4e019ULL);
  return edgesched::splitmix64(state);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 1.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    state_ ^= (bits >> (8 * i)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Counters Counters::capture() {
  (void)edgesched::obs::hot_counters();  // registers every hot counter
  Counters out;
  for (const auto& [name, value] :
       edgesched::obs::global_metrics().counter_values()) {
    out.values[name] = static_cast<double>(value);
  }
  return out;
}

Counters Counters::operator-(const Counters& earlier) const {
  Counters out = *this;
  for (const auto& [name, value] : earlier.values) {
    out.values[name] -= value;
  }
  return out;
}

Counters& Counters::operator+=(const Counters& other) {
  for (const auto& [name, value] : other.values) {
    values[name] += value;
  }
  return *this;
}

double Counters::operator[](const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

SpanTotals SpanTotals::capture() {
  return SpanTotals{edgesched::obs::Tracer::instance().span_totals()};
}

namespace {
bool span_matches(const std::string& span, const std::string& name) {
  if (name.rfind("*/", 0) == 0) {
    const std::string suffix = name.substr(1);
    return span.size() > suffix.size() &&
           span.compare(span.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  }
  return span == name;
}
}  // namespace

double SpanTotals::seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& [span, t] : totals) {
    if (span_matches(span, name)) {
      total += t.total_seconds();
    }
  }
  return total;
}

std::uint64_t SpanTotals::count(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [span, t] : totals) {
    if (span_matches(span, name)) {
      total += t.count;
    }
  }
  return total;
}

ScopedAggregateTrace::ScopedAggregateTrace() {
  edgesched::obs::Tracer::instance().set_mode(
      edgesched::obs::TraceMode::kAggregate);
}

ScopedAggregateTrace::~ScopedAggregateTrace() {
  edgesched::obs::Tracer::instance().set_mode(
      edgesched::obs::TraceMode::kDisabled);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note});
}

void Report::ratio(const std::string& name, double numerator,
                   double denominator) {
  std::ostringstream note;
  note << "= " << format_number(numerator) << " / "
       << format_number(denominator);
  add(name, denominator > 0.0 ? numerator / denominator : 0.0, "ratio",
      note.str());
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& reason) { problems_.push_back(reason); }

void Report::failed_op(const std::string& reason) {
  ++failed_;
  if (failed_ <= 5) {
    problems_.push_back("operation failed: " + reason);
  }
}

void Report::print(const std::string& workload,
                   const std::vector<std::string>& json_metrics) {
  std::ostringstream metrics;
  bool first = true;
  for (const std::string& name : json_metrics) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (it == entries_.end()) {
      fail("metric " + name + " was not measured");
      continue;
    }
    double value = it->value;
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << format_number(value) << ", \"unit\": \"" << it->unit << "\"}";
    first = false;
  }
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  add("failed_frac", failed_frac, "frac",
      "= " + std::to_string(failed_) + " / " + std::to_string(attempted_));
  if (attempted_ == 0) {
    fail("no operation was attempted");
  }

  for (const std::string& line : notes_) {
    std::cout << "# " << workload << " " << line << "\n";
  }
  for (const Entry& e : entries_) {
    std::cout << "metric " << workload << " " << e.name << " "
              << format_number(e.value) << " " << e.unit;
    if (!e.note.empty()) {
      std::cout << "  " << e.note;
    }
    std::cout << "\n";
  }
  for (const std::string& p : problems_) {
    std::cout << "# " << workload << " PROBLEM " << p << "\n";
  }
  std::cout << "{\"correct\": " << (problems_.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

void report_engine_layers(Report& report, const Counters& delta,
                          const SpanTotals& spans, double ops) {
  const auto d = [&](const char* name) { return delta[name]; };
  const double routed = d("sched_edges_routed_total");
  report.ratio("net.relaxations_per_routed_edge",
               d("sched_dijkstra_relaxations_total"), routed);
  const double cache_hits = d("net_route_cache_hits_total");
  report.ratio("net.route_cache_hit_ratio", cache_hits,
               cache_hits + d("net_route_cache_misses_total"));
  const double memo_hits = d("net_route_memo_hits_total");
  report.ratio("net.route_memo_hit_ratio", memo_hits,
               memo_hits + d("net_route_memo_misses_total"));
  report.ratio("timeline.gap_steps_per_probe",
               d("sched_probe_gap_steps_total"), d("sched_link_probes_total"));
  report.ratio("timeline.scan_steps_per_optimal_probe",
               d("sched_optimal_scan_steps_total"),
               d("sched_optimal_probes_total"));
  report.ratio("timeline.deferral_yield", d("sched_deferred_insertions_total"),
               d("sched_deferral_scans_total"));
  report.ratio("timeline.bandwidth_probes_per_routed_edge",
               d("sched_bandwidth_probes_total"), routed);
  report.ratio("sched.candidates_per_task",
               d("sched_candidates_evaluated_total"),
               d("sched_tasks_placed_total"));

  // Span self time: the `<algo>/schedule` span minus its direct children.
  const double schedule = spans.seconds("*/schedule");
  const double route = spans.seconds("*/route_edge");
  const double select = spans.seconds("*/select_processor");
  const double priorities = spans.seconds("sched/priorities");
  const double self = schedule - route - select - priorities;
  const std::string per_op = "per op, " + format_number(ops) + " ops";
  report.add("net.route_edge_s", route / ops, "s", per_op);
  report.add("sched.select_processor_s", select / ops, "s", per_op);
  report.add("sched.priorities_s", priorities / ops, "s", per_op);
  report.add("sched.self_s", self / ops, "s", per_op);
  report.ratio("sched.unattributed_frac", self, schedule);
  for (const auto& [name, total] : spans.totals) {
    std::ostringstream line;
    line << "span " << name << " count=" << total.count
         << " total_s=" << format_number(total.total_seconds());
    report.note(line.str());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0.0) {
    std::cerr << "usage: edgesched_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }

  perfbench::Report report;
  try {
    if (options.workload == "fattree_frontier") {
      perfbench::run_fattree_frontier(options, report);
    } else if (options.workload == "torus_replan") {
      perfbench::run_torus_replan(options, report);
    } else if (options.workload == "service_stream") {
      perfbench::run_service_stream(options, report);
    } else {
      std::cerr << "unknown workload " << options.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.print(options.workload,
               options.trace ? perfbench::kPerLayer : perfbench::kEndToEnd);
  return 0;
}
