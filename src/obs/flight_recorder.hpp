// Always-on postmortem flight recorder.
//
// The tracer and decision log are opt-in: when a run fails they were
// usually off, and the evidence is gone. The flight recorder is the
// opposite trade — always on, bounded, coarse. Every thread keeps a
// small ring of the last `kCapacity` milestone events (a schedule
// produced, a fault injected, a recovery decision, a run finishing, a
// service job), and when something goes wrong the rings merge into one
// JSON postmortem that shows what the process was doing just before.
//
// Cost discipline: recording sites are coarse (per schedule() call, per
// fault/recovery/round — never per task, edge or simulated event), the
// enabled check is one relaxed atomic load, and a disabled recorder
// records nothing. Benchmarks (bench/telemetry.hpp) disable it for the
// measured region so the ≤2% disabled-path overhead envelope covers
// "tracer + recorder off".
//
// Determinism: entries carry *virtual* time and logical payloads only —
// no wall clock — so same-seed runs dump byte-identical postmortems.
// The global sequence number orders entries across threads; under the
// single-threaded CLI it is exactly the recording order.
//
// Dump triggers (all funnel through `maybe_write_postmortem`):
//   * exec::execute on validator failure or recovery exhaustion,
//   * the CLI on demand (`edgesched_cli run --postmortem <file>`),
//   * anything else that wants a black-box snapshot.
// Automatic dumps are written only when EDGESCHED_POSTMORTEM_DIR is set
// (tests and CI point it at a scratch directory; interactive runs stay
// quiet). Format reference: docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/json.hpp"

namespace edgesched::obs {

/// Milestone kinds the recorder distinguishes. Payload fields `a`/`b`
/// are kind-specific (documented per enumerator).
enum class FlightEventKind : std::uint8_t {
  kSchedule = 0,   ///< engine produced a schedule; a=tasks, b=makespan
  kExecStart = 1,  ///< executor run started; a=tasks, b=0
  kExecRound = 2,  ///< executor (re)plan round ended; a=round, b=vtime
  kFault = 3,      ///< fault injected; a=target id, b=vtime
  kRecovery = 4,   ///< recovery decision; a=tasks remaining, b=vtime
  kExecEnd = 5,    ///< executor run finished; a=completed!=0, b=makespan
  kAbort = 6,      ///< run aborted (exhaustion/fail-stop); a=round, b=vtime
  kJob = 7,        ///< service job finished; a=job id, b=0
  kCache = 8,      ///< service cache lookup; a=hit!=0, b=0
  kNote = 9,       ///< free-form milestone; payload site-defined
};

/// Stable lowercase name of `kind` (JSON `"kind"` member).
[[nodiscard]] const char* flight_event_kind_name(
    FlightEventKind kind) noexcept;

/// One recorded milestone.
struct FlightEntry {
  std::uint64_t seq = 0;  ///< global recording order (1-based)
  std::uint64_t run = 0;  ///< correlating run ID (obs/run_context), 0 none
  FlightEventKind kind = FlightEventKind::kNote;
  const char* label = "";  ///< static string literal (site description)
  double time = 0.0;       ///< virtual/model time when known, else 0
  std::uint64_t a = 0;     ///< kind-specific payload
  double b = 0.0;          ///< kind-specific payload
};

class FlightRecorder {
 public:
  /// Per-thread ring capacity (entries).
  static constexpr std::size_t kCapacity = 256;

  [[nodiscard]] static FlightRecorder& instance();

  /// Records one milestone into the calling thread's ring, stamping it
  /// with the next global sequence number and the thread's current run
  /// ID. No-op while disabled.
  void record(FlightEventKind kind, const char* label, double time = 0.0,
              std::uint64_t a = 0, double b = 0.0);

  /// Hot-path check: one relaxed atomic load.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Entries currently held across all threads (≤ threads × kCapacity).
  [[nodiscard]] std::size_t size() const;

  /// Discards all recorded entries (rings stay registered) and resets
  /// the sequence counter — so tests and the CLI start from seq 1.
  void clear();

  /// Merges every thread's ring in sequence order into one postmortem
  /// document: {"type":"postmortem","reason":reason,
  ///  "entries":[{"seq","run","kind","label","time","a","b"},...]}.
  [[nodiscard]] JsonValue dump_json(const std::string& reason) const;

  /// Writes `dump_json(reason)` to `os`, pretty-printed, trailing newline.
  void write_postmortem(std::ostream& os, const std::string& reason) const;

  /// Automatic-trigger hook: when the EDGESCHED_POSTMORTEM_DIR
  /// environment variable names a directory, writes
  /// `<dir>/postmortem_<reason>.json` and returns the path; otherwise
  /// does nothing and returns "". Failures to open the file are
  /// swallowed (the recorder must never take down the run it is
  /// documenting).
  std::string maybe_write_postmortem(const std::string& reason) const;

  struct ThreadRing;  ///< implementation detail, defined in the .cpp

 private:
  FlightRecorder() = default;
  [[nodiscard]] ThreadRing& local_ring();

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{1};
};

/// Shorthand for FlightRecorder::instance().
[[nodiscard]] inline FlightRecorder& flight_recorder() {
  return FlightRecorder::instance();
}

/// Disables the recorder for a scope (benchmark measured regions);
/// restores the previous state on destruction.
class ScopedFlightRecorderPause {
 public:
  ScopedFlightRecorderPause()
      : previous_(flight_recorder().enabled()) {
    flight_recorder().set_enabled(false);
  }
  ~ScopedFlightRecorderPause() { flight_recorder().set_enabled(previous_); }

  ScopedFlightRecorderPause(const ScopedFlightRecorderPause&) = delete;
  ScopedFlightRecorderPause& operator=(const ScopedFlightRecorderPause&) =
      delete;

 private:
  bool previous_;
};

}  // namespace edgesched::obs
