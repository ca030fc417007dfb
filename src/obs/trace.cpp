#include "obs/trace.hpp"

#include <charconv>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace edgesched::obs {

namespace detail {
std::atomic<int> g_trace_mode{static_cast<int>(TraceMode::kDisabled)};
}  // namespace detail

/// Per-thread recording state. Guarded by its own mutex: the owning
/// thread is the only writer, so the lock is uncontended on the hot path,
/// but it makes concurrent exports (and TSan) happy.
struct Tracer::ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::unordered_map<const char*, SpanTotal> totals;
  std::uint64_t dropped = 0;
  std::uint64_t tid = 0;
};

namespace {

/// Registry of every thread's buffer. Buffers are never removed (a
/// handful of pointers per thread lifetime), so raw thread_local pointers
/// into it stay valid forever.
struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Tracer::ThreadBuffer>> buffers;
};

BufferRegistry& registry() {
  static BufferRegistry* instance = new BufferRegistry();
  return *instance;
}

/// Writes `"key":value` pairs, comma-separated. Numbers take their
/// shortest round-trip spelling; every value a trace carries (times,
/// counts) is finite, so JSON's lack of inf/nan never matters.
void write_members(std::ostream& os, std::span<const TraceArg> members) {
  for (const TraceArg& member : members) {
    if (&member != members.data()) {
      os << ',';
    }
    os << '"' << json_escape(member.key) << "\":";
    std::visit(
        [&os](auto v) {
          if constexpr (std::is_same_v<decltype(v), std::string_view>) {
            os << '"' << json_escape(v) << '"';
          } else if constexpr (std::is_same_v<decltype(v), bool>) {
            os << (v ? "true" : "false");
          } else {
            char buffer[32];
            const auto end = std::to_chars(buffer, std::end(buffer), v).ptr;
            os.write(buffer, end - buffer);
          }
        },
        member.value);
  }
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    BufferRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    raw->tid = reg.buffers.size() + 1;
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

void Tracer::set_mode(TraceMode mode) noexcept {
  detail::g_trace_mode.store(static_cast<int>(mode),
                             std::memory_order_relaxed);
}

TraceMode Tracer::mode() const noexcept {
  return static_cast<TraceMode>(
      detail::g_trace_mode.load(std::memory_order_relaxed));
}

void Tracer::clear() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->totals.clear();
    buffer->dropped = 0;
  }
}

void Tracer::record(const TraceEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  SpanTotal& total = buffer.totals[event.name];
  ++total.count;
  total.total_ns += event.duration_ns;
  if (mode() == TraceMode::kFull) {
    if (buffer.events.size() < kMaxEventsPerThread) {
      buffer.events.push_back(event);
    } else {
      ++buffer.dropped;
    }
  }
}

std::size_t Tracer::event_count() const {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t count = 0;
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

std::uint64_t Tracer::dropped() const {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t dropped = 0;
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    dropped += buffer->dropped;
  }
  return dropped;
}

std::size_t Tracer::thread_count() const {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t threads = 0;
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    if (!buffer->events.empty() || !buffer->totals.empty()) {
      ++threads;
    }
  }
  return threads;
}

std::map<std::string, SpanTotal> Tracer::span_totals() const {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::map<std::string, SpanTotal> merged;
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const auto& [name, total] : buffer->totals) {
      SpanTotal& slot = merged[name];
      slot.count += total.count;
      slot.total_ns += total.total_ns;
    }
  }
  return merged;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  TraceEventWriter writer(os);
  for (const auto& buffer : reg.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const TraceEvent& event : buffer->events) {
      // Both args are optional: the slice drops an unset id or run ID.
      const TraceArg args[] = {{"id", event.arg}, {"run_id", event.run_id}};
      const std::size_t first = event.arg == kNoArg ? 1 : 0;
      const std::size_t last = event.run_id == 0 ? 1 : 2;
      writer.complete(1, buffer->tid, event.name,
                      static_cast<double>(event.start_ns) / 1000.0,
                      static_cast<double>(event.duration_ns) / 1000.0,
                      std::span(args).subspan(first, last - first),
                      event.category);
    }
  }
  writer.finish();
}

TraceEventWriter::TraceEventWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void TraceEventWriter::process_name(std::uint32_t pid,
                                    std::string_view name) {
  const TraceArg members[] = {
      {"ph", "M"}, {"pid", pid}, {"name", "process_name"}};
  const TraceArg args[] = {{"name", name}};
  event(members, args);
}

void TraceEventWriter::thread_name(std::uint32_t pid, std::uint64_t tid,
                                   std::string_view name) {
  const TraceArg members[] = {
      {"ph", "M"}, {"pid", pid}, {"tid", tid}, {"name", "thread_name"}};
  const TraceArg args[] = {{"name", name}};
  event(members, args);
}

void TraceEventWriter::complete(std::uint32_t pid, std::uint64_t tid,
                                std::string_view name, double ts,
                                double dur, std::span<const TraceArg> args,
                                std::string_view category) {
  const TraceArg members[] = {{"ph", "X"},    {"pid", pid}, {"tid", tid},
                              {"name", name}, {"ts", ts},   {"dur", dur},
                              {"cat", category}};
  event(std::span(members).first(category.empty() ? 6 : 7), args);
}

void TraceEventWriter::instant(std::uint32_t pid, std::uint64_t tid,
                               std::string_view name, double ts,
                               std::span<const TraceArg> args) {
  const TraceArg members[] = {{"ph", "i"},  {"s", "t"},     {"pid", pid},
                              {"tid", tid}, {"name", name}, {"ts", ts}};
  event(members, args);
}

void TraceEventWriter::finish() { os_ << "\n]}\n"; }

void TraceEventWriter::event(std::span<const TraceArg> members,
                             std::span<const TraceArg> args) {
  os_ << (std::exchange(first_, false) ? "\n{" : ",\n{");
  write_members(os_, members);
  if (!args.empty()) {
    os_ << ",\"args\":{";
    write_members(os_, args);
    os_ << '}';
  }
  os_ << '}';
}

void Span::finish() noexcept {
  const auto end = std::chrono::steady_clock::now();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start_.time_since_epoch())
                       .count();
  event.duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  event.arg = arg_;
  event.run_id = run_id_;
  // A span that straddles a disable still records: losing the event would
  // be more surprising than one extra entry.
  Tracer::instance().record(event);
}

}  // namespace edgesched::obs
