// Span-based runtime tracer for the scheduler itself.
//
// `sched/trace_export` visualises the *schedule* an algorithm produced;
// this tracer records the *algorithm running*: every instrumented phase
// (priority computation, processor selection, edge routing, insertion,
// pool jobs, sweep instances) opens an RAII `Span`, and the collected
// events export through `TraceEventWriter` below, the writer of every
// trace document (also `sched/trace_export`'s and `exec/trace_merge`'s).
//
// Cost model — the tracer is always compiled in, so the disabled path
// must be nearly free:
//   * kDisabled  — a Span is one relaxed atomic load and a branch; no
//     clock read, no allocation (the "null sink" the overhead bench
//     measures).
//   * kAggregate — no events are stored; each span folds its duration
//     into a per-thread name -> {count, total} table. Cheap enough to
//     leave on during benchmarks, and the source of the per-phase totals
//     in BENCH_*.json telemetry.
//   * kFull      — every span becomes a trace event in a per-thread
//     buffer (bounded by kMaxEventsPerThread; overflow counts as
//     `dropped`). Threads merge at export time.
//
// Thread model: each thread owns a registered buffer guarded by its own
// (uncontended) mutex, so recording never blocks other threads and
// exports are race-free even while workers are live. Buffers persist
// after thread exit so their events survive until `clear()`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "obs/run_context.hpp"

namespace edgesched::obs {

/// Integers print every digit, doubles their shortest round-trip form (a
/// parsed `ts` is the double written); the writer escapes strings.
using TraceValue = std::variant<std::uint64_t, double, bool, std::string_view>;

struct TraceArg {
  std::string_view key;
  TraceValue value;
};

/// Streams one Chrome trace-event document, one event per line, with no
/// buffering (exports may hold millions of events); `finish()` closes it.
/// The document shape is in docs/observability.md, "Chrome trace
/// documents". Empty `args` write no "args" member.
class TraceEventWriter {
 public:
  explicit TraceEventWriter(std::ostream& os);

  void process_name(std::uint32_t pid, std::string_view name);
  void thread_name(std::uint32_t pid, std::uint64_t tid,
                   std::string_view name);
  /// Complete ("X") event; an empty `category` writes no "cat" member.
  void complete(std::uint32_t pid, std::uint64_t tid, std::string_view name,
                double ts, double dur, std::span<const TraceArg> args = {},
                std::string_view category = {});
  /// Thread-scoped instant ("i") event.
  void instant(std::uint32_t pid, std::uint64_t tid, std::string_view name,
               double ts, std::span<const TraceArg> args = {});
  void finish();

 private:
  void event(std::span<const TraceArg> members,
             std::span<const TraceArg> args);

  std::ostream& os_;
  bool first_ = true;
};

enum class TraceMode : int { kDisabled = 0, kAggregate = 1, kFull = 2 };

namespace detail {
extern std::atomic<int> g_trace_mode;
}  // namespace detail

/// True when spans record anything at all (aggregate or full mode). This
/// is the hot-path check: one relaxed load.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_trace_mode.load(std::memory_order_relaxed) !=
         static_cast<int>(TraceMode::kDisabled);
}

inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

/// One completed span, Chrome trace-event "X" phase.
struct TraceEvent {
  const char* name = nullptr;      ///< static string literal
  const char* category = nullptr;  ///< static string literal
  std::int64_t start_ns = 0;       ///< steady-clock nanoseconds
  std::int64_t duration_ns = 0;
  std::uint64_t arg = kNoArg;  ///< optional payload (task/edge id, ...)
  std::uint64_t run_id = 0;    ///< correlating run (obs/run_context), 0 none
};

/// Aggregated statistics of one span name.
struct SpanTotal {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  [[nodiscard]] double total_seconds() const noexcept {
    return static_cast<double>(total_ns) * 1e-9;
  }
};

class Tracer {
 public:
  /// Events kept per thread in kFull mode before dropping.
  static constexpr std::size_t kMaxEventsPerThread = 1u << 20;

  [[nodiscard]] static Tracer& instance();

  void set_mode(TraceMode mode) noexcept;
  [[nodiscard]] TraceMode mode() const noexcept;

  /// Discards all recorded events, totals and drop counts (buffers stay
  /// registered; outstanding spans of live threads still land safely).
  void clear();

  /// Stored events across all threads (kFull mode only).
  [[nodiscard]] std::size_t event_count() const;
  /// Events discarded because a thread buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Distinct threads that have recorded at least one span.
  [[nodiscard]] std::size_t thread_count() const;

  /// Merged per-name span statistics (populated in both kAggregate and
  /// kFull modes).
  [[nodiscard]] std::map<std::string, SpanTotal> span_totals() const;

  /// Writes every stored span as a complete event of pid 1, one tid per
  /// recording thread, in microseconds of the steady clock.
  void write_chrome_trace(std::ostream& os) const;

  /// Records one completed span into the calling thread's buffer. Called
  /// by ~Span; callable directly for externally-timed phases.
  void record(const TraceEvent& event);

  struct ThreadBuffer;  ///< implementation detail, defined in trace.cpp

 private:
  Tracer() = default;
  [[nodiscard]] ThreadBuffer& local_buffer();
};

/// RAII span. Constructing with tracing disabled costs one atomic load;
/// `name` and `category` must be string literals (they are stored by
/// pointer).
class Span {
 public:
  explicit Span(const char* name, const char* category = "sched",
                std::uint64_t arg = kNoArg) noexcept {
    if (tracing_enabled()) {
      name_ = name;
      category_ = category;
      arg_ = arg;
      run_id_ = current_run_id();
      start_ = std::chrono::steady_clock::now();
      active_ = true;
    }
  }
  ~Span() {
    if (active_) {
      finish();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish() noexcept;

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t arg_ = kNoArg;
  std::uint64_t run_id_ = 0;
  std::chrono::steady_clock::time_point start_{};
  bool active_ = false;
};

}  // namespace edgesched::obs
