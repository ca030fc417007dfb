// Shared pieces of the edgesched benchmark harness: options, statistics,
// counter and span snapshots, and the metric report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Independent 64-bit stream key for (seed, a, b): every generated input
/// is a pure function of the run seed and its own index.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                     std::uint64_t b = 0);

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Midpoint median; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);
/// Geometric mean; 1 (the empty product) for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Order-dependent digest of doubles (bit patterns), so two runs of one
/// seed can be diffed with a single value.
class Digest {
 public:
  void add(double value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

/// Counter values of `obs::global_metrics()` by name, or the difference of
/// two captures. The registry is process-global and accumulates across
/// workloads, so workloads read deltas around their measured operations.
struct Counters {
  std::map<std::string, double> values;

  [[nodiscard]] static Counters capture();
  [[nodiscard]] Counters operator-(const Counters& earlier) const;
  Counters& operator+=(const Counters& other);
  /// 0 for a counter never registered.
  [[nodiscard]] double operator[](const std::string& name) const;
};

/// Aggregate span totals of the tracer.
struct SpanTotals {
  std::map<std::string, edgesched::obs::SpanTotal> totals;

  [[nodiscard]] static SpanTotals capture();
  /// Summed seconds of every span named `name` or `*/<suffix>` when
  /// `name` starts with "*/".
  [[nodiscard]] double seconds(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
};

/// Runs the tracer in aggregate mode for one scope. Span totals accumulate
/// over every such scope until `Tracer::clear()`.
class ScopedAggregateTrace {
 public:
  ScopedAggregateTrace();
  ~ScopedAggregateTrace();
  ScopedAggregateTrace(const ScopedAggregateTrace&) = delete;
  ScopedAggregateTrace& operator=(const ScopedAggregateTrace&) = delete;
};

/// The metrics a run prints: every one as a text line, and the declared
/// end-to-end (untraced run) or per-layer (traced run) set in the final
/// JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A ratio printed with its numerator and denominator (0 when the
  /// denominator is 0).
  void ratio(const std::string& name, double numerator, double denominator);
  void note(const std::string& line);
  void fail(const std::string& reason);

  void attempt() { ++attempted_; }
  /// Counts one failed operation; the run is then incorrect.
  void failed_op(const std::string& reason);

  /// Prints the text lines, then the JSON line holding the named metrics
  /// (a missing one makes the result incorrect).
  void print(const std::string& workload,
             const std::vector<std::string>& json_metrics);

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs `fn` `reps` times and returns each run's duration in seconds.
template <typename Fn>
std::vector<double> time_reps(int reps, Fn&& fn) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

/// Per-layer metrics derived from counter deltas and span totals, shared
/// by every workload. `ops` normalises span times per operation.
void report_engine_layers(Report& report, const Counters& delta,
                          const SpanTotals& spans, double ops);

void run_fattree_frontier(const Options& options, Report& report);
void run_torus_replan(const Options& options, Report& report);
void run_service_stream(const Options& options, Report& report);

}  // namespace perfbench
