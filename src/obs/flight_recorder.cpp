#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/run_context.hpp"
#include "util/env.hpp"

namespace edgesched::obs {

const char* flight_event_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kSchedule:
      return "schedule";
    case FlightEventKind::kExecStart:
      return "exec_start";
    case FlightEventKind::kExecRound:
      return "exec_round";
    case FlightEventKind::kFault:
      return "fault";
    case FlightEventKind::kRecovery:
      return "recovery";
    case FlightEventKind::kExecEnd:
      return "exec_end";
    case FlightEventKind::kAbort:
      return "abort";
    case FlightEventKind::kJob:
      return "job";
    case FlightEventKind::kCache:
      return "cache";
    case FlightEventKind::kNote:
      return "note";
  }
  return "unknown";
}

/// Per-thread ring. Same locking model as Tracer::ThreadBuffer: the
/// owning thread is the only writer, so the mutex is uncontended on the
/// record path but makes concurrent dumps (and TSan) happy.
struct FlightRecorder::ThreadRing {
  std::mutex mutex;
  std::deque<FlightEntry> entries;
};

namespace {

/// Registry of every thread's ring; rings are never removed so the raw
/// thread_local pointers into it stay valid for the process lifetime.
struct RingRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<FlightRecorder::ThreadRing>> rings;
};

RingRegistry& registry() {
  static RingRegistry* instance = new RingRegistry();
  return *instance;
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
  thread_local ThreadRing* ring = [] {
    auto owned = std::make_unique<ThreadRing>();
    ThreadRing* raw = owned.get();
    RingRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.rings.push_back(std::move(owned));
    return raw;
  }();
  return *ring;
}

void FlightRecorder::record(FlightEventKind kind, const char* label,
                            double time, std::uint64_t a, double b) {
  if (!enabled()) {
    return;
  }
  FlightEntry entry;
  entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  entry.run = current_run_id();
  entry.kind = kind;
  entry.label = label;
  entry.time = time;
  entry.a = a;
  entry.b = b;
  ThreadRing& ring = local_ring();
  const std::lock_guard<std::mutex> lock(ring.mutex);
  if (ring.entries.size() == kCapacity) {
    ring.entries.pop_front();
  }
  ring.entries.push_back(entry);
}

std::size_t FlightRecorder::size() const {
  RingRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& ring : reg.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->entries.size();
  }
  return total;
}

void FlightRecorder::clear() {
  RingRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->entries.clear();
  }
  next_seq_.store(1, std::memory_order_relaxed);
}

JsonValue FlightRecorder::dump_json(const std::string& reason) const {
  std::vector<FlightEntry> merged;
  {
    RingRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& ring : reg.rings) {
      const std::lock_guard<std::mutex> ring_lock(ring->mutex);
      merged.insert(merged.end(), ring->entries.begin(),
                    ring->entries.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlightEntry& lhs, const FlightEntry& rhs) {
              return lhs.seq < rhs.seq;
            });
  JsonValue entries = JsonValue::array();
  for (const FlightEntry& entry : merged) {
    entries.push(JsonValue::object()
                     .set("seq", JsonValue(entry.seq))
                     .set("run", JsonValue(entry.run))
                     .set("kind", JsonValue(flight_event_kind_name(entry.kind)))
                     .set("label", JsonValue(entry.label))
                     .set("time", JsonValue(entry.time))
                     .set("a", JsonValue(entry.a))
                     .set("b", JsonValue(entry.b)));
  }
  return JsonValue::object()
      .set("type", JsonValue("postmortem"))
      .set("reason", JsonValue(reason))
      .set("entries", std::move(entries));
}

void FlightRecorder::write_postmortem(std::ostream& os,
                                      const std::string& reason) const {
  os << dump_json(reason).dump(2) << '\n';
}

std::string FlightRecorder::maybe_write_postmortem(
    const std::string& reason) const {
  const std::string dir = env_string("EDGESCHED_POSTMORTEM_DIR", "");
  if (dir.empty()) {
    return "";
  }
  // Deterministic filename: keyed by reason only, so same-seed reruns
  // overwrite rather than accumulate.
  std::string slug = reason;
  for (char& c : slug) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!keep) {
      c = '_';
    }
  }
  const std::string path = dir + "/postmortem_" + slug + ".json";
  std::ofstream os(path);
  if (!os) {
    return "";
  }
  write_postmortem(os, reason);
  return path;
}

}  // namespace edgesched::obs
