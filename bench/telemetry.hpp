// Shared observability harness of every bench binary.
//
// A `TelemetryScope` lives for main()'s whole duration. On construction
// it parses (and strips) the common observability flags and arms the
// tracer; on destruction it writes `BENCH_<name>.json` — wall time,
// per-phase span totals, global counter values and whatever result
// series the binary added via `report()` — to $EDGESCHED_BENCH_DIR (or
// the working directory). See docs/observability.md.
//
// Flags (removed from argc/argv, so downstream parsers such as
// benchmark::Initialize never see them):
//   --trace <file>      record full span events, write a Chrome
//                       trace-event JSON to <file> on exit
//   --decisions <file>  stream the scheduler decision log to <file>
//                       as JSONL
//   --metrics           print the metrics registry text dump to stderr
//                       on exit
#pragma once

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace edgesched::bench {

class TelemetryScope {
 public:
  /// `name` is the telemetry slug (BENCH_<name>.json); empty derives it
  /// from argv[0]'s basename. Figure/ablation benches keep the default
  /// kAggregate mode (per-phase totals, no event storage); micros pass
  /// kDisabled so the measured loops run the tracer's null path unless
  /// --trace asks otherwise.
  TelemetryScope(std::string name, int* argc, char** argv,
                 obs::TraceMode default_mode = obs::TraceMode::kAggregate)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    if (name_.empty() && argc != nullptr && *argc > 0) {
      name_ = basename_of(argv[0]);
    }
    obs::TraceMode mode = default_mode;
    if (argc != nullptr) {
      int out = 1;
      for (int i = 1; i < *argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--trace") == 0 && i + 1 < *argc) {
          trace_path_ = argv[++i];
          mode = obs::TraceMode::kFull;
        } else if (std::strcmp(arg, "--decisions") == 0 && i + 1 < *argc) {
          decisions_path_ = argv[++i];
        } else if (std::strcmp(arg, "--metrics") == 0) {
          dump_metrics_ = true;
        } else {
          argv[out++] = argv[i];
        }
      }
      for (int i = out; i < *argc; ++i) {
        argv[i] = nullptr;
      }
      *argc = out;
    }
    obs::Tracer::instance().set_mode(mode);
    if (mode == obs::TraceMode::kDisabled) {
      // Micros measure the disabled observability path: the always-on
      // flight recorder pauses too, so the ≤2% overhead envelope covers
      // "tracer + recorder off" (docs/observability.md).
      recorder_pause_.emplace();
    }
    if (!decisions_path_.empty()) {
      decisions_out_.open(decisions_path_);
      if (!decisions_out_) {
        std::cerr << "telemetry: cannot open " << decisions_path_ << "\n";
      } else {
        decision_log_.emplace(decisions_out_);
        scoped_log_.emplace(*decision_log_);
      }
    }
    report_.emplace(name_);
  }

  ~TelemetryScope() {
    scoped_log_.reset();  // detach before the log is destroyed
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    obs::Tracer& tracer = obs::Tracer::instance();
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (out) {
        tracer.write_chrome_trace(out);
        out.flush();
      }
      if (out) {
        std::cerr << "telemetry: wrote trace " << trace_path_ << "\n";
      } else {
        std::cerr << "telemetry: cannot write " << trace_path_ << "\n";
      }
    }
    if (dump_metrics_) {
      std::cerr << obs::global_metrics().text_dump();
    }
    try {
      report_->set_number("wall_seconds", wall);
      report_->add_span_totals();
      report_->add_counters();
      std::cerr << "telemetry: wrote " << report_->write() << "\n";
    } catch (const std::exception& e) {
      std::cerr << "telemetry: " << e.what() << "\n";
    }
    tracer.set_mode(obs::TraceMode::kDisabled);
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// The report the destructor writes; mains add result series here.
  [[nodiscard]] obs::BenchReport& report() noexcept { return *report_; }

 private:
  static std::string basename_of(const char* path) {
    const std::string full(path);
    const std::size_t slash = full.find_last_of('/');
    return slash == std::string::npos ? full : full.substr(slash + 1);
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::string trace_path_;
  std::string decisions_path_;
  bool dump_metrics_ = false;
  std::ofstream decisions_out_;
  std::optional<obs::DecisionLog> decision_log_;
  std::optional<obs::ScopedDecisionLog> scoped_log_;
  std::optional<obs::ScopedFlightRecorderPause> recorder_pause_;
  std::optional<obs::BenchReport> report_;
};

}  // namespace edgesched::bench
