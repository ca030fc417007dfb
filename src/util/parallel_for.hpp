// Deterministic intra-run data parallelism.
//
// `static_chunk` is the single partitioning rule of every parallel loop
// in this library: lane `w` of `W` always owns the same contiguous index
// range of `n` items, independent of timing, so any reduction that walks
// the results in index order is bit-identical at every worker count —
// including 1. `WorkerTeam::run`, the GA/SA worker lanes' one fork/join,
// chunks through it.
//
// `WorkerTeam` is a persistent fork/join team: a search run performs one
// barrier per generation or neighbor batch, so per-dispatch cost stays
// in the microsecond range. The team spawns `lanes - 1` threads once;
// `run(n, body)` publishes the loop via an atomic generation counter
// (workers spin briefly, then block on a condition variable), the caller
// executes lane 0 itself, and the join waits symmetrically. Exceptions
// thrown by any lane are captured and the first one rethrown on the
// caller after the join, so a failed loop cannot leak detached work.
//
// Determinism contract: `run` invokes `body(lane, begin, end)` with
// exactly the `static_chunk` ranges; bodies writing only to disjoint
// per-index slots (or lane-private state) therefore produce output
// independent of interleaving. See docs/parallelism.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace edgesched::util {

/// Contiguous half-open range [begin, end) of lane `lane` out of `lanes`
/// over `n` items. The first `n % lanes` lanes get one extra item, so
/// sizes differ by at most one and the union is exactly [0, n).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool empty() const noexcept { return begin == end; }
};

[[nodiscard]] inline ChunkRange static_chunk(std::size_t n, std::size_t lanes,
                                             std::size_t lane) noexcept {
  const std::size_t base = n / lanes;
  const std::size_t extra = n % lanes;
  const std::size_t begin = lane * base + (lane < extra ? lane : extra);
  return ChunkRange{begin, begin + base + (lane < extra ? 1 : 0)};
}

/// Persistent fork/join worker team; see the file comment for the
/// contract. A team belongs to one controlling thread: `run` must not be
/// called concurrently with itself, and bodies must not call back into
/// the same team (no nesting).
class WorkerTeam {
 public:
  using Body =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// Spawns `lanes - 1` worker threads; the caller is lane 0. `lanes` of
  /// 0 or 1 spawns nothing and `run` degenerates to a plain serial call.
  explicit WorkerTeam(std::size_t lanes);

  /// Wakes and joins all workers. Safe after any sequence of runs.
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Total lanes including the caller's lane 0; always >= 1.
  [[nodiscard]] std::size_t lanes() const noexcept {
    return workers_.size() + 1;
  }

  /// Executes `body(lane, begin, end)` once per lane over the
  /// `static_chunk` partition of [0, n). Blocks until every lane
  /// finished; rethrows the first exception any lane threw.
  void run(std::size_t n, const Body& body);

 private:
  void worker_loop(std::size_t lane);
  void run_lane(std::size_t lane, const Body& body);
  void capture_exception();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable dispatch_cv_;
  std::condition_variable join_cv_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> stopping_{false};
  std::size_t items_ = 0;
  const Body* body_ = nullptr;
  std::exception_ptr first_exception_;
};

}  // namespace edgesched::util
