#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

namespace edgesched::obs {

namespace {

std::atomic<std::uint64_t> g_next_sequence{1};

MetricsRegistry::HistogramData copy_of(const Histogram& histogram) {
  MetricsRegistry::HistogramData data;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    data.buckets[i] = histogram.bucket(i);
  }
  data.count = histogram.count();
  data.sum = histogram.sum();
  return data;
}

}  // namespace

void Histogram::observe(double seconds) noexcept {
  // O(1) bucket lookup: for s in (2^(e-1), 2^e] the winning bound is
  // 2^e; frexp gives s = m * 2^e with m in [0.5, 1), so the bound
  // exponent is e unless s sits exactly on the lower power of two.
  std::size_t bucket;
  if (!(seconds > kUpperBounds.front())) {  // also catches <= 0 and NaN
    bucket = 0;
  } else if (seconds > kUpperBounds.back()) {
    bucket = kUpperBounds.size();  // +inf
  } else {
    int exponent = 0;
    const double mantissa = std::frexp(seconds, &exponent);
    if (mantissa == 0.5) {
      --exponent;  // exactly 2^(e-1): it belongs in the lower bucket
    }
    bucket = static_cast<std::size_t>(exponent - kMinExponent);
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lowered;
  // a CAS loop is portable and the histogram is not on a tight loop.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + seconds,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const noexcept {
  return MetricsSnapshot::quantile(copy_of(*this), q);
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

std::string MetricsRegistry::text_dump() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  // One merged pass over both (already name-sorted) maps, so the dump is
  // a single sorted-by-name sequence whatever order metrics were created
  // in or which kind they are.
  auto counter_it = counters_.begin();
  auto histogram_it = histograms_.begin();
  const auto emit_counter = [&os](const auto& entry) {
    os << "counter " << entry.first << ' ' << entry.second->value() << '\n';
  };
  const auto emit_histogram = [&os](const auto& entry) {
    const std::string& name = entry.first;
    const HistogramData data = copy_of(*entry.second);
    os << "histogram " << name << " count " << data.count << " sum "
       << data.sum << '\n';
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kUpperBounds.size(); ++i) {
      cumulative += data.buckets[i];
      os << "histogram " << name << " le " << Histogram::kUpperBounds[i]
         << ' ' << cumulative << '\n';
    }
    os << "histogram " << name << " le +inf " << data.count << '\n';
    os << "histogram " << name << " p50 "
       << MetricsSnapshot::quantile(data, 0.50) << '\n';
    os << "histogram " << name << " p95 "
       << MetricsSnapshot::quantile(data, 0.95) << '\n';
    os << "histogram " << name << " p99 "
       << MetricsSnapshot::quantile(data, 0.99) << '\n';
  };
  while (counter_it != counters_.end() ||
         histogram_it != histograms_.end()) {
    const bool take_counter =
        histogram_it == histograms_.end() ||
        (counter_it != counters_.end() &&
         counter_it->first <= histogram_it->first);
    if (take_counter) {
      emit_counter(*counter_it++);
    } else {
      emit_histogram(*histogram_it++);
    }
  }
  return os.str();
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> values;
  for (const auto& [name, counter] : counters_) {
    values[name] = counter->value();
  }
  return values;
}

std::map<std::string, MetricsRegistry::HistogramData>
MetricsRegistry::histogram_data() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, HistogramData> values;
  for (const auto& [name, histogram] : histograms_) {
    values.emplace(name, copy_of(*histogram));
  }
  return values;
}

void MetricsRegistry::reset_for_test() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    counter->reset();
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->reset();
  }
}

MetricsSnapshot MetricsSnapshot::capture(const MetricsRegistry& registry) {
  MetricsSnapshot snapshot;
  snapshot.sequence = g_next_sequence.fetch_add(1, std::memory_order_relaxed);
  snapshot.counters = registry.counter_values();
  snapshot.histograms = registry.histogram_data();
  return snapshot;
}

double MetricsSnapshot::quantile(const MetricsRegistry::HistogramData& data,
                                 double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t in_bucket : data.buckets) {
    total += in_bucket;
  }
  if (total == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based (q = 0 -> first, q = 1 ->
  // last), then a cumulative walk to the bucket holding it.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  const auto& bounds = Histogram::kUpperBounds;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < data.buckets.size(); ++i) {
    const std::uint64_t in_bucket = data.buckets[i];
    if (in_bucket == 0) {
      continue;
    }
    if (cumulative + in_bucket >= rank) {
      if (i >= bounds.size()) {
        return bounds.back();  // +inf bucket clamps
      }
      const double upper = bounds[i];
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      // Observations spread uniformly inside the bucket for estimation.
      const double position = static_cast<double>(rank - cumulative) /
                              static_cast<double>(in_bucket);
      return lower + (upper - lower) * position;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

JsonValue MetricsSnapshot::to_json() const {
  JsonValue counters_json = JsonValue::object();
  for (const auto& [name, value] : counters) {
    counters_json.set(name, JsonValue(value));
  }
  JsonValue histograms_json = JsonValue::object();
  for (const auto& [name, data] : histograms) {
    JsonValue buckets = JsonValue::array();
    for (const std::uint64_t in_bucket : data.buckets) {
      buckets.push(JsonValue(in_bucket));
    }
    histograms_json.set(name,
                        JsonValue::object()
                            .set("count", JsonValue(data.count))
                            .set("sum", JsonValue(data.sum))
                            .set("buckets", std::move(buckets))
                            .set("p50", JsonValue(quantile(data, 0.50)))
                            .set("p95", JsonValue(quantile(data, 0.95)))
                            .set("p99", JsonValue(quantile(data, 0.99))));
  }
  return JsonValue::object()
      .set("type", JsonValue("metrics_snapshot"))
      .set("sequence", JsonValue(sequence))
      .set("counters", std::move(counters_json))
      .set("histograms", std::move(histograms_json));
}

void write_snapshot_line(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << snapshot.to_json().dump() << '\n';
}

PeriodicSnapshotter::PeriodicSnapshotter(const MetricsRegistry& registry,
                                         std::ostream& os,
                                         std::chrono::milliseconds interval)
    : registry_(registry), os_(os), interval_(interval) {
  thread_ = std::thread([this] { run(); });
}

PeriodicSnapshotter::~PeriodicSnapshotter() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write_once();  // final line: short runs still leave one snapshot behind
}

void PeriodicSnapshotter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    write_once();
    lock.lock();
  }
}

void PeriodicSnapshotter::write_once() {
  write_snapshot_line(os_, MetricsSnapshot::capture(registry_));
  os_.flush();
}

}  // namespace edgesched::obs
