// Thread-safe metrics: counters, latency histograms, their registry, and
// the point-in-time snapshots that export them.
//
// A MetricsRegistry is a named set of monotonic counters and log2-bucket
// latency histograms that worker threads update wait-free (atomics only)
// and that `text_dump()` renders in a Prometheus-style line format:
//
//   counter svc_requests_total 128
//   histogram svc_schedule_seconds count 96 sum 1.73e+00
//   histogram svc_schedule_seconds le 9.53674e-07 0
//   ...
//   histogram svc_schedule_seconds le +inf 96
//   histogram svc_schedule_seconds p50 0.0123
//   histogram svc_schedule_seconds p95 0.0611
//   histogram svc_schedule_seconds p99 0.102
//
// Bucket layout: powers of two from 2^-20 s (~0.95 µs) to 2^7 s (128 s),
// one implicit +inf bucket — every factor-of-two band between a
// microsecond and two minutes gets its own bucket, so there is no
// decade-wide hole and quantile estimates are within one power of two
// of the true value (linear interpolation inside
// the winning bucket does much better in practice; bounds tested in
// tests/obs_metrics_quantile_test.cpp).
//
// Metric objects are created on first use and live as long as the
// registry; the references returned by `counter()` / `histogram()` stay
// valid, so hot paths resolve a metric once and update it lock-free.
//
// `MetricsSnapshot::capture(registry)` freezes every counter and full
// histogram with a process-local sequence number; `to_json()` is the
// document the CLI's `--metrics-json` writes, and `PeriodicSnapshotter`
// appends one such document per line to a stream every interval.
// A snapshot of deterministic counters serialises byte-identically
// across same-seed runs (sorted maps, obs/json number formatting).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace edgesched::obs {

/// Monotonic counter; wait-free increments.
class Counter {
 public:
  void increment(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the counter in place (the object survives, so references
  /// held by hot paths stay valid). Test/tooling use only.
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

namespace detail {

/// Smallest histogram bucket bound exponent: 2^-20 s ~ 0.95 µs.
inline constexpr int kHistogramMinExponent = -20;
/// Largest finite histogram bucket bound exponent: 2^7 s = 128 s.
inline constexpr int kHistogramMaxExponent = 7;
inline constexpr std::size_t kHistogramNumBounds =
    static_cast<std::size_t>(kHistogramMaxExponent - kHistogramMinExponent +
                             1);

constexpr std::array<double, kHistogramNumBounds> make_histogram_bounds() {
  std::array<double, kHistogramNumBounds> bounds{};
  double value = 1.0;
  for (int e = 0; e > kHistogramMinExponent; --e) {
    value /= 2.0;  // powers of two are exact in binary floating point
  }
  for (std::size_t i = 0; i < kHistogramNumBounds; ++i) {
    bounds[i] = value;
    value *= 2.0;
  }
  return bounds;
}

}  // namespace detail

/// Latency histogram with log2 buckets from ~1 µs to 128 s. Values are
/// seconds; bucket `i` holds observations <= kUpperBounds[i] (the
/// Prometheus `le` convention) and above the previous bound.
class Histogram {
 public:
  static constexpr int kMinExponent = detail::kHistogramMinExponent;
  static constexpr int kMaxExponent = detail::kHistogramMaxExponent;

  /// Bucket upper bounds in seconds (2^kMinExponent ... 2^kMaxExponent);
  /// one implicit +inf bucket follows.
  static constexpr std::array<double, detail::kHistogramNumBounds>
      kUpperBounds = detail::make_histogram_bounds();
  static constexpr std::size_t kNumBuckets = kUpperBounds.size() + 1;

  void observe(double seconds) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Observations in bucket `i` (i == kUpperBounds.size() is +inf).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// `MetricsSnapshot::quantile` applied to a copy of the buckets now.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Zeroes all buckets, count and sum in place. Test/tooling use only.
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named collection of counters and histograms.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use. The
  /// reference stays valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name);

  /// Returns the histogram named `name`, creating it on first use.
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Renders every metric in the line format documented above, in one
  /// deterministic sorted-by-name sequence across both metric kinds —
  /// output never depends on registration order.
  [[nodiscard]] std::string text_dump() const;

  /// Current counter values, sorted by name.
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_values() const;

  /// Point-in-time copy of one histogram: every bucket plus count/sum.
  struct HistogramData {
    std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  /// Current histogram copies, sorted by name. Buckets are read without
  /// a global atomic snapshot: concurrent observes may straddle the copy
  /// by one observation, which monitoring tolerates.
  [[nodiscard]] std::map<std::string, HistogramData> histogram_data() const;

  /// Zeroes every metric in place without destroying it: references
  /// previously returned by `counter()` / `histogram()` stay valid, so
  /// tests that share a process-global registry can start from a clean
  /// slate regardless of what ran before them.
  void reset_for_test();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

struct MetricsSnapshot {
  /// Process-local capture sequence number (1, 2, ... in capture order;
  /// 0 for default-constructed snapshots).
  std::uint64_t sequence = 0;

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, MetricsRegistry::HistogramData> histograms;

  /// Copies every metric of `registry` now.
  [[nodiscard]] static MetricsSnapshot capture(
      const MetricsRegistry& registry);

  /// One JSON document: {"type":"metrics_snapshot","sequence":N,
  ///  "counters":{...},"histograms":{name:{"count","sum","buckets":[...],
  ///  "p50","p95","p99"}}}.
  [[nodiscard]] JsonValue to_json() const;

  /// The histogram quantile estimator, over frozen buckets: finds the
  /// bucket holding the ceil(q * total)-th observation and interpolates
  /// linearly inside it (0 when empty; `q` is clamped to [0, 1];
  /// observations in the +inf bucket clamp to the largest finite bound).
  [[nodiscard]] static double quantile(
      const MetricsRegistry::HistogramData& data, double q) noexcept;
};

/// Appends `snapshot.to_json()` (compact, one line) to `os`.
void write_snapshot_line(std::ostream& os, const MetricsSnapshot& snapshot);

/// Background thread writing one full snapshot line per interval.
class PeriodicSnapshotter {
 public:
  /// Starts snapshotting `registry` into `os` immediately (the first
  /// line is written after one interval). The stream and registry must
  /// outlive this object.
  PeriodicSnapshotter(const MetricsRegistry& registry, std::ostream& os,
                      std::chrono::milliseconds interval);

  /// Stops the thread and writes one final snapshot line (so short runs
  /// always leave at least one line behind).
  ~PeriodicSnapshotter();

  PeriodicSnapshotter(const PeriodicSnapshotter&) = delete;
  PeriodicSnapshotter& operator=(const PeriodicSnapshotter&) = delete;

 private:
  void run();
  void write_once();

  const MetricsRegistry& registry_;
  std::ostream& os_;
  std::chrono::milliseconds interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace edgesched::obs
