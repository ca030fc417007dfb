#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "svc/thread_pool.hpp"

namespace edgesched::obs {
namespace {

// Every test mutates the process-global tracer; this guard gives each one
// a clean slate and guarantees the disabled default is restored even when
// an assertion fails mid-test.
struct TracerGuard {
  explicit TracerGuard(TraceMode mode) {
    Tracer::instance().set_mode(TraceMode::kDisabled);
    Tracer::instance().clear();
    Tracer::instance().set_mode(mode);
  }
  ~TracerGuard() {
    Tracer::instance().set_mode(TraceMode::kDisabled);
    Tracer::instance().clear();
  }
};

JsonValue export_trace() {
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  return JsonValue::parse(out.str());
}

/// First trace event with the given name; throws when absent.
JsonValue find_event(const JsonValue& trace, const std::string& name) {
  const JsonValue& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).at("name").as_string() == name) {
      return events.at(i);
    }
  }
  throw std::out_of_range("no trace event named " + name);
}

TEST(ObsTrace, DisabledModeRecordsNothing) {
  const TracerGuard guard(TraceMode::kDisabled);
  EXPECT_FALSE(tracing_enabled());
  {
    Span outer("obs_test/outer");
    Span inner("obs_test/inner", "test", 3);
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_TRUE(Tracer::instance().span_totals().empty());
}

TEST(ObsTrace, AggregateModeFoldsTotalsWithoutStoringEvents) {
  const TracerGuard guard(TraceMode::kAggregate);
  for (int i = 0; i < 5; ++i) {
    Span span("obs_test/agg", "test");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  const auto totals = Tracer::instance().span_totals();
  ASSERT_TRUE(totals.contains("obs_test/agg"));
  EXPECT_EQ(totals.at("obs_test/agg").count, 5u);
  EXPECT_GE(totals.at("obs_test/agg").total_ns, 0);
  EXPECT_DOUBLE_EQ(totals.at("obs_test/agg").total_seconds(),
                   static_cast<double>(totals.at("obs_test/agg").total_ns) *
                       1e-9);
}

TEST(ObsTrace, FullModeRecordsNestedSpans) {
  const TracerGuard guard(TraceMode::kFull);
  {
    Span outer("obs_test/outer", "test");
    {
      Span inner("obs_test/inner", "test");
    }
    {
      Span inner("obs_test/inner", "test");
    }
  }
  EXPECT_EQ(Tracer::instance().event_count(), 3u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
  const auto totals = Tracer::instance().span_totals();
  ASSERT_TRUE(totals.contains("obs_test/outer"));
  ASSERT_TRUE(totals.contains("obs_test/inner"));
  EXPECT_EQ(totals.at("obs_test/outer").count, 1u);
  EXPECT_EQ(totals.at("obs_test/inner").count, 2u);
  // The inner spans completed inside the outer one, so their combined
  // duration cannot exceed it.
  EXPECT_LE(totals.at("obs_test/inner").total_ns,
            totals.at("obs_test/outer").total_ns);
}

TEST(ObsTrace, ChromeExportIsLoadableCompleteEventJson) {
  const TracerGuard guard(TraceMode::kFull);
  {
    Span tagged("obs_test/tagged", "test", 42);
  }
  {
    Span untagged("obs_test/untagged", "test");
  }
  const JsonValue trace = export_trace();
  ASSERT_TRUE(trace.contains("traceEvents"));
  EXPECT_EQ(trace.at("traceEvents").size(), 2u);

  const JsonValue tagged = find_event(trace, "obs_test/tagged");
  EXPECT_EQ(tagged.at("cat").as_string(), "test");
  EXPECT_EQ(tagged.at("ph").as_string(), "X");  // complete event
  EXPECT_GE(tagged.at("ts").as_number(), 0.0);
  EXPECT_GE(tagged.at("dur").as_number(), 0.0);
  EXPECT_EQ(tagged.at("pid").as_number(), 1.0);
  EXPECT_TRUE(tagged.contains("tid"));
  ASSERT_TRUE(tagged.contains("args"));
  EXPECT_EQ(tagged.at("args").at("id").as_number(), 42.0);

  // kNoArg spans must not emit a bogus args payload.
  EXPECT_FALSE(find_event(trace, "obs_test/untagged").contains("args"));
}

TEST(ObsTrace, ThreadsRecordIntoDistinctTids) {
  const TracerGuard guard(TraceMode::kFull);
  std::thread first([] { Span span("obs_test/thread_a", "test"); });
  std::thread second([] { Span span("obs_test/thread_b", "test"); });
  first.join();
  second.join();

  EXPECT_EQ(Tracer::instance().event_count(), 2u);
  EXPECT_GE(Tracer::instance().thread_count(), 2u);
  const JsonValue trace = export_trace();
  const double tid_a =
      find_event(trace, "obs_test/thread_a").at("tid").as_number();
  const double tid_b =
      find_event(trace, "obs_test/thread_b").at("tid").as_number();
  EXPECT_NE(tid_a, tid_b);
}

TEST(ObsTrace, ClearDiscardsEventsAndTotals) {
  const TracerGuard guard(TraceMode::kFull);
  {
    Span span("obs_test/cleared", "test");
  }
  ASSERT_EQ(Tracer::instance().event_count(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_TRUE(Tracer::instance().span_totals().empty());
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

// Concurrent recording from pool workers while the main thread snapshots
// and exports — the race TSan runs this test to check.
TEST(ObsTrace, PoolWorkersRecordConcurrentlyWithExport) {
  const TracerGuard guard(TraceMode::kFull);
  constexpr int kJobs = 64;
  {
    svc::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      futures.push_back(pool.submit([i] {
        Span span("obs_test/pool_work", "test",
                  static_cast<std::uint64_t>(i));
      }));
    }
    // Export while workers are still recording: must be race-free even
    // mid-run (each buffer has its own mutex).
    std::ostringstream mid;
    Tracer::instance().write_chrome_trace(mid);
    (void)Tracer::instance().span_totals();
    for (auto& f : futures) {
      f.get();
    }
  }
  const auto totals = Tracer::instance().span_totals();
  ASSERT_TRUE(totals.contains("obs_test/pool_work"));
  EXPECT_EQ(totals.at("obs_test/pool_work").count,
            static_cast<std::uint64_t>(kJobs));
  // The pool's own instrumentation wraps every job in a svc/job span.
  ASSERT_TRUE(totals.contains("svc/job"));
  EXPECT_GE(totals.at("svc/job").count, static_cast<std::uint64_t>(kJobs));
  // The final export parses and holds every worker event.
  const JsonValue trace = export_trace();
  EXPECT_GE(trace.at("traceEvents").size(), static_cast<std::size_t>(kJobs));
}

// --- TraceEventWriter: the one streamed trace-event document writer ----

JsonValue write_document(const std::function<void(TraceEventWriter&)>& fn) {
  std::ostringstream os;
  TraceEventWriter writer(os);
  fn(writer);
  writer.finish();
  return JsonValue::parse(os.str());
}

TEST(TraceEventWriter, NumbersRoundTripBitForBit) {
  const std::vector<double> values = {0.0,  12.0, 1234567.891,
                                      1e-7, 1e20, 9007199254740994.0};
  std::ostringstream os;
  TraceEventWriter writer(os);
  // Integers print every digit, also past 2^53 where a double would not.
  const std::uint64_t id = 9007199254740993u;
  for (const double v : values) {
    const TraceArg args[] = {{"value", v}, {"id", id}};
    writer.complete(0, 0, "n", v, v, args);
  }
  writer.finish();
  const std::string text = os.str();
  EXPECT_NE(text.find("\"id\":9007199254740993}"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":12,"), std::string::npos) << text;
  EXPECT_NE(text.find("\"ts\":1234567.891,"), std::string::npos) << text;
  const JsonValue events = JsonValue::parse(text).at("traceEvents");
  ASSERT_EQ(events.size(), values.size());
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (std::size_t i = 0; i < values.size(); ++i) {
    const JsonValue& e = events.at(i);
    EXPECT_EQ(bits(e.at("ts").as_number()), bits(values[i])) << values[i];
    EXPECT_EQ(bits(e.at("dur").as_number()), bits(values[i])) << values[i];
    EXPECT_EQ(bits(e.at("args").at("value").as_number()), bits(values[i]));
  }
}

TEST(TraceEventWriter, EscapesEveryStringAndRoundTripsIt) {
  const std::string name = "na\"me\\\x01\t\n";
  const std::string category = "c\"at\x1f";
  const std::string value = "v\"al\r\x02";
  std::ostringstream os;
  TraceEventWriter writer(os);
  writer.process_name(0, name);
  writer.thread_name(0, 1, name);
  const TraceArg args[] = {{"k\"ey\x03", std::string_view(value)},
                           {"flag", true}};
  writer.complete(0, 1, name, 1.5, 2.0, args, category);
  writer.instant(0, 1, name, 3.0, args);
  writer.finish();
  const std::string text = os.str();
  for (const char c : text) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control character " << static_cast<int>(c);
  }
  const JsonValue events = JsonValue::parse(text).at("traceEvents");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.at(0).at("args").at("name").as_string(), name);
  EXPECT_EQ(events.at(1).at("args").at("name").as_string(), name);
  for (std::size_t i = 2; i < 4; ++i) {
    const JsonValue& e = events.at(i);
    EXPECT_EQ(e.at("name").as_string(), name);
    EXPECT_EQ(e.at("args").at("k\"ey\x03").as_string(), value);
    EXPECT_TRUE(e.at("args").at("flag").as_bool());
  }
  EXPECT_EQ(events.at(2).at("cat").as_string(), category);
  EXPECT_EQ(events.at(3).at("ph").as_string(), "i");
}

TEST(TraceEventWriter, EmptyDocumentParses) {
  const JsonValue doc = write_document([](TraceEventWriter&) {});
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);
}

TEST(TraceEventWriter, EventWithoutArgsWritesNoArgsMember) {
  const JsonValue doc = write_document([](TraceEventWriter& w) {
    w.complete(2, 7, "bare", 1.0, 2.0);
    w.instant(2, 7, "bare", 3.0);
  });
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_FALSE(events.at(i).contains("args"));
    EXPECT_FALSE(events.at(i).contains("cat"));
    EXPECT_EQ(events.at(i).at("pid").as_number(), 2.0);
    EXPECT_EQ(events.at(i).at("tid").as_number(), 7.0);
  }
}

}  // namespace
}  // namespace edgesched::obs
