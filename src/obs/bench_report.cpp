#include "obs/bench_report.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace edgesched::obs {

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), root_(JsonValue::object()) {
  root_.set("name", JsonValue(name_));
  root_.set("schema", JsonValue("edgesched-bench-telemetry-v1"));
}

void BenchReport::add_span_totals() {
  JsonValue totals = JsonValue::object();
  for (const auto& [name, total] : Tracer::instance().span_totals()) {
    totals.set(name, JsonValue::object()
                         .set("count", JsonValue(total.count))
                         .set("seconds", JsonValue(total.total_seconds())));
  }
  root_.set("span_totals", std::move(totals));
}

void BenchReport::add_counters() { add_counters(global_metrics()); }

void BenchReport::add_counters(const MetricsRegistry& registry) {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : registry.counter_values()) {
    counters.set(name, JsonValue(value));
  }
  root_.set("counters", std::move(counters));

  JsonValue histograms = JsonValue::object();
  for (const auto& [name, data] : registry.histogram_data()) {
    histograms.set(name,
                   JsonValue::object()
                       .set("count", JsonValue(data.count))
                       .set("sum_seconds", JsonValue(data.sum)));
  }
  root_.set("histograms", std::move(histograms));
}

std::string BenchReport::default_path() const {
  const char* dir = std::getenv("EDGESCHED_BENCH_DIR");
  std::string path = dir != nullptr && *dir != '\0' ? std::string(dir) : ".";
  if (path.back() != '/') {
    path += '/';
  }
  return path + "BENCH_" + name_ + ".json";
}

std::string BenchReport::write() const {
  const std::string path = default_path();
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("BenchReport: cannot open " + path);
  }
  write(file);
  return path;
}

void BenchReport::write(std::ostream& os) const {
  root_.write(os, 2);
  os << '\n';
}

}  // namespace edgesched::obs
