#include "obs/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace edgesched::obs {
namespace {

TEST(BenchReport, PrepopulatesNameAndSchema) {
  BenchReport report("micro_example");
  EXPECT_EQ(report.root().at("name").as_string(), "micro_example");
  EXPECT_EQ(report.root().at("schema").as_string(),
            "edgesched-bench-telemetry-v1");
}

TEST(BenchReport, SettersAndSeriesRoundTripThroughJson) {
  BenchReport report("round_trip");
  report.set_number("wall_seconds", 1.25);
  report.set_string("figure", "fig1");
  JsonValue points = JsonValue::array();
  points.push(JsonValue::object()
                  .set("x", JsonValue(0.5))
                  .set("ba_makespan_mean", JsonValue(42.0)));
  report.root().set("points", std::move(points));

  std::ostringstream out;
  report.write(out);
  const JsonValue parsed = JsonValue::parse(out.str());
  EXPECT_DOUBLE_EQ(parsed.at("wall_seconds").as_number(), 1.25);
  EXPECT_EQ(parsed.at("figure").as_string(), "fig1");
  ASSERT_EQ(parsed.at("points").size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.at("points").at(0).at("x").as_number(), 0.5);
}

TEST(BenchReport, AddCountersSnapshotsARegistry) {
  MetricsRegistry registry;
  registry.counter("alpha_total").increment(3);
  registry.histogram("latency_seconds").observe(0.5);
  registry.histogram("latency_seconds").observe(1.5);

  BenchReport report("counters");
  report.add_counters(registry);
  const JsonValue& root = report.root();
  EXPECT_EQ(root.at("counters").at("alpha_total").as_number(), 3.0);
  const JsonValue& latency = root.at("histograms").at("latency_seconds");
  EXPECT_EQ(latency.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(latency.at("sum_seconds").as_number(), 2.0);
}

TEST(BenchReport, AddSpanTotalsReflectsTracerAggregates) {
  Tracer::instance().set_mode(TraceMode::kDisabled);
  Tracer::instance().clear();
  Tracer::instance().set_mode(TraceMode::kAggregate);
  {
    Span span("bench_report_test/span", "test");
  }
  BenchReport report("spans");
  report.add_span_totals();
  Tracer::instance().set_mode(TraceMode::kDisabled);
  Tracer::instance().clear();

  const JsonValue& totals = report.root().at("span_totals");
  ASSERT_TRUE(totals.contains("bench_report_test/span"));
  EXPECT_EQ(totals.at("bench_report_test/span").at("count").as_number(),
            1.0);
  EXPECT_GE(totals.at("bench_report_test/span").at("seconds").as_number(),
            0.0);
}

TEST(BenchReport, DefaultPathHonoursBenchDir) {
  // setenv/getenv in a single-threaded test binary section.
  ASSERT_EQ(setenv("EDGESCHED_BENCH_DIR", "/tmp/bench_report_test", 1), 0);
  EXPECT_EQ(BenchReport("fig9").default_path(),
            "/tmp/bench_report_test/BENCH_fig9.json");
  ASSERT_EQ(setenv("EDGESCHED_BENCH_DIR", "", 1), 0);
  EXPECT_EQ(BenchReport("fig9").default_path(), "./BENCH_fig9.json");
  ASSERT_EQ(unsetenv("EDGESCHED_BENCH_DIR"), 0);
}

// The registry backing the hot-path counters and the --metrics dump.
TEST(MetricsRegistryDump, TextDumpIsSortedAcrossMetricKinds) {
  MetricsRegistry registry;
  // Registered deliberately out of name order, mixing kinds.
  registry.counter("zeta_total").increment();
  registry.histogram("mid_seconds").observe(1e-4);
  registry.counter("alpha_total").increment(2);

  const std::string dump = registry.text_dump();
  const std::size_t alpha = dump.find("counter alpha_total 2");
  const std::size_t mid = dump.find("histogram mid_seconds count 1");
  const std::size_t zeta = dump.find("counter zeta_total 1");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, mid);  // sorted by name, not registration order
  EXPECT_LT(mid, zeta);   // ... and not grouped by metric kind
}

TEST(MetricsRegistryDump, ResetForTestZeroesWithoutInvalidating) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("reused_total");
  Histogram& histogram = registry.histogram("reused_seconds");
  counter.increment(7);
  histogram.observe(0.25);

  registry.reset_for_test();
  // The references resolved before the reset stay live and start clean.
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  counter.increment();
  EXPECT_EQ(registry.counter("reused_total").value(), 1u);
  EXPECT_EQ(&registry.counter("reused_total"), &counter);
}

TEST(JsonParse, RejectsRawControlCharactersInStrings) {
  // RFC 8259 section 7: U+0000 through U+001F must be escaped in strings.
  for (int c = 0; c < 0x20; ++c) {
    std::string doc = "[\"a";
    doc += static_cast<char>(c);
    doc += "b\"]";
    EXPECT_THROW((void)JsonValue::parse(doc), std::runtime_error)
        << "raw control character " << c;
  }
  EXPECT_THROW((void)JsonValue::parse("{\"k\tey\": 1}"), std::runtime_error);
  // Between tokens, tab, newline and carriage return stay whitespace.
  EXPECT_EQ(JsonValue::parse("{\t\"k\":\r\n1}").at("k").as_number(), 1.0);
}

TEST(JsonParse, EscapedControlCharactersRoundTrip) {
  std::string text;
  for (int c = 0; c < 0x20; ++c) {
    text += static_cast<char>(c);
  }
  text += "\x7f end";
  JsonValue doc = JsonValue::object();
  doc.set("text", text);
  const std::string serialised = doc.dump();
  for (const char c : serialised) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(JsonValue::parse(serialised).at("text").as_string(), text);
  EXPECT_EQ(JsonValue::parse("\"\\u0001\\t\"").as_string(), "\x01\t");
}

}  // namespace
}  // namespace edgesched::obs
