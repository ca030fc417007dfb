// Machine-readable benchmark telemetry: BENCH_<name>.json.
//
// Every bench binary writes one JSON document describing the run — wall
// time, per-phase span totals (from the tracer's aggregate table),
// counter values (from the global metrics registry) and whatever
// result-series the binary adds (makespan statistics, sweep points).
// The files are the PR-over-PR perf trajectory: CI validates and archives
// them, so a regression shows up as a diff in numbers rather than as an
// anecdote.
//
// Output location: `$EDGESCHED_BENCH_DIR/BENCH_<name>.json`, defaulting
// to the current working directory.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace edgesched::obs {

class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// The mutable document; pre-populated with "name" and "schema".
  [[nodiscard]] JsonValue& root() noexcept { return root_; }

  void set_number(const std::string& key, double value) {
    root_.set(key, JsonValue(value));
  }
  void set_string(const std::string& key, std::string value) {
    root_.set(key, JsonValue(std::move(value)));
  }

  /// Snapshots the tracer's merged span totals into "span_totals":
  /// {name: {count, seconds}}. Empty object when tracing was disabled.
  void add_span_totals();

  /// Snapshots `registry` counter values into "counters" and histogram
  /// count/sum pairs into "histograms". Defaults to the global scheduler
  /// metrics.
  void add_counters();
  void add_counters(const MetricsRegistry& registry);

  /// `BENCH_<name>.json` inside $EDGESCHED_BENCH_DIR (or the CWD).
  [[nodiscard]] std::string default_path() const;

  /// Writes the document to `default_path()`; returns the path written.
  /// Throws std::runtime_error when the file cannot be opened.
  std::string write() const;
  void write(std::ostream& os) const;

 private:
  std::string name_;
  JsonValue root_;
};

}  // namespace edgesched::obs
