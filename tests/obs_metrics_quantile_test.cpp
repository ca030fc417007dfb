// obs::Histogram bucket layout + quantile estimator, MetricsSnapshot
// exposition, and MetricsRegistry thread-safety (run under TSan in CI).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

namespace edgesched {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;

TEST(HistogramLayout, BucketsArePowersOfTwoWithNoHole) {
  // The PR 2 layout jumped 1 s -> 100 s; every adjacent pair must now be
  // exactly a factor of two apart, so no latency band is decades wide.
  ASSERT_GE(Histogram::kUpperBounds.size(), 2u);
  for (std::size_t i = 1; i < Histogram::kUpperBounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(Histogram::kUpperBounds[i],
                     2.0 * Histogram::kUpperBounds[i - 1])
        << "gap after bound " << i - 1;
  }
  EXPECT_DOUBLE_EQ(Histogram::kUpperBounds.front(),
                   std::ldexp(1.0, Histogram::kMinExponent));
  EXPECT_DOUBLE_EQ(Histogram::kUpperBounds.back(),
                   std::ldexp(1.0, Histogram::kMaxExponent));
  EXPECT_EQ(Histogram::kNumBuckets, Histogram::kUpperBounds.size() + 1);
}

TEST(HistogramLayout, ObserveLandsInTheTightestLeBucket) {
  Histogram h;
  // Exactly on a bound: the Prometheus `le` convention means the value
  // belongs in that bound's bucket, not the next one.
  h.observe(1.0);
  const std::size_t one_second =
      static_cast<std::size_t>(0 - Histogram::kMinExponent);
  EXPECT_EQ(h.bucket(one_second), 1u);
  // Just above: next bucket.
  h.observe(1.0000001);
  EXPECT_EQ(h.bucket(one_second + 1), 1u);
  // Below the smallest bound, zero, negative, all collapse into bucket 0.
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(Histogram::kUpperBounds.front() / 2.0);
  EXPECT_EQ(h.bucket(0), 3u);
  // Above the largest finite bound: +inf bucket.
  h.observe(2.0 * Histogram::kUpperBounds.back());
  EXPECT_EQ(h.bucket(Histogram::kUpperBounds.size()), 1u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(HistogramQuantile, WithinOnePowerOfTwoOfTruth) {
  // A spread of known latencies: the estimate may land anywhere inside
  // the true value's bucket, i.e. within [true/2, true] bounds of log2
  // resolution.
  Histogram h;
  const std::vector<double> values = {0.00001, 0.0001, 0.0005, 0.001,
                                      0.003,   0.01,   0.02,   0.05,
                                      0.1,     0.4};
  for (double v : values) {
    h.observe(v);
  }
  for (double q : {0.5, 0.95, 0.99}) {
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const double truth = values[static_cast<std::size_t>(rank) - 1];
    const double estimate = h.quantile(q);
    EXPECT_LE(estimate, 2.0 * truth) << "q=" << q;
    EXPECT_GE(estimate, truth / 2.0) << "q=" << q;
  }
}

TEST(HistogramQuantile, InterpolatesInsideTheWinningBucket) {
  // 4 observations in one bucket (bounds 1..2 s): ranks 1..4 interpolate
  // to 1.25, 1.5, 1.75, 2.0.
  Histogram h;
  for (int i = 0; i < 4; ++i) {
    h.observe(1.5);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.75);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramQuantile, EdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram h;
  h.observe(0.01);
  EXPECT_GT(h.quantile(-1.0), 0.0);  // clamps to q=0, first observation
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));

  // Everything in +inf clamps to the largest finite bound.
  Histogram overflow;
  overflow.observe(10.0 * Histogram::kUpperBounds.back());
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), Histogram::kUpperBounds.back());
}

TEST(MetricsRegistry, ResetPreservesReferences) {
  MetricsRegistry registry;
  obs::Counter& counter = registry.counter("requests");
  Histogram& histogram = registry.histogram("latency");
  counter.increment(7);
  histogram.observe(0.25);
  registry.reset_for_test();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  // The same objects keep working after the reset.
  counter.increment();
  histogram.observe(0.5);
  EXPECT_EQ(registry.counter("requests").value(), 1u);
  EXPECT_EQ(registry.histogram("latency").count(), 1u);
  EXPECT_EQ(&registry.counter("requests"), &counter);
  EXPECT_EQ(&registry.histogram("latency"), &histogram);
}

TEST(MetricsRegistry, TextDumpEmitsQuantileLines) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("svc_schedule_seconds");
  for (int i = 0; i < 100; ++i) {
    h.observe(0.001 * (i + 1));
  }
  const std::string dump = registry.text_dump();
  for (const char* needle :
       {"le +inf 100", " p50 ", " p95 ", " p99 "}) {
    EXPECT_NE(dump.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsRegistry, ConcurrentObserversAndReaders) {
  // Hammered by writers while a reader keeps dumping and snapshotting;
  // TSan (CI job `tsan`) verifies the registry is race-free and the
  // final totals prove no increment was lost.
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      obs::Counter& counter = registry.counter("ops");
      Histogram& histogram = registry.histogram("latency");
      for (int i = 0; i < kIterations; ++i) {
        counter.increment();
        histogram.observe(0.0001 * ((w + 1) * (i % 17 + 1)));
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) {
      (void)registry.text_dump();
      (void)obs::MetricsSnapshot::capture(registry);
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.counter("ops").value(),
            static_cast<std::uint64_t>(kWriters) * kIterations);
  EXPECT_EQ(registry.histogram("latency").count(),
            static_cast<std::uint64_t>(kWriters) * kIterations);
}

TEST(MetricsSnapshot, CaptureDeltaAndSequence) {
  MetricsRegistry registry;
  registry.counter("requests").increment(10);
  registry.histogram("latency").observe(0.002);

  const obs::MetricsSnapshot first = obs::MetricsSnapshot::capture(registry);
  registry.counter("requests").increment(5);
  registry.histogram("latency").observe(0.004);
  const obs::MetricsSnapshot second =
      obs::MetricsSnapshot::capture(registry);

  EXPECT_GT(second.sequence, first.sequence);
  EXPECT_EQ(first.counters.at("requests"), 10u);
  EXPECT_EQ(second.counters.at("requests"), 15u);
}

TEST(MetricsSnapshot, PrometheusAndJsonShapes) {
  MetricsRegistry registry;
  registry.counter("svc_requests_total").increment(3);
  registry.histogram("svc_schedule_seconds").observe(0.01);
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture(registry);

  const obs::JsonValue json = snap.to_json();
  const std::string text = json.dump();
  // Round-trips through the obs JSON parser.
  const obs::JsonValue parsed = obs::JsonValue::parse(text);
  EXPECT_EQ(parsed.at("type").as_string(), "metrics_snapshot");
  EXPECT_DOUBLE_EQ(
      parsed.at("counters").at("svc_requests_total").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("histograms")
                       .at("svc_schedule_seconds")
                       .at("count")
                       .as_number(),
                   1.0);
}

TEST(MetricsSnapshot, StaticQuantileMatchesLiveHistogram) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  for (int i = 0; i < 64; ++i) {
    h.observe(0.001 * (i + 1));
  }
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture(registry);
  const auto& data = snap.histograms.at("latency");
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(obs::MetricsSnapshot::quantile(data, q),
                     h.quantile(q))
        << "q=" << q;
  }
}

TEST(PeriodicSnapshotter, AlwaysWritesAtLeastOneParsableLine) {
  MetricsRegistry registry;
  registry.counter("requests").increment(2);
  std::ostringstream os;
  {
    obs::PeriodicSnapshotter snapshotter(registry, os, std::chrono::hours(1));
    // Destroyed immediately: the interval never elapses, the destructor
    // still flushes one final line.
  }
  std::istringstream lines(os.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue doc = obs::JsonValue::parse(line);
    EXPECT_EQ(doc.at("type").as_string(), "metrics_snapshot");
    ++parsed;
  }
  EXPECT_GE(parsed, 1u);
}

}  // namespace
}  // namespace edgesched
