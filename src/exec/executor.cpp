#include "exec/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "dag/transforms.hpp"
#include "exec/recovery.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "sched/platform.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"
#include "util/error.hpp"

namespace edgesched::exec {

std::string_view to_string(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kFailStop:
      return "fail-stop";
    case RecoveryPolicy::kRetry:
      return "retry";
    case RecoveryPolicy::kReschedule:
      return "reschedule";
  }
  return "?";
}

std::string_view to_string(DispatchMode mode) noexcept {
  return mode == DispatchMode::kTimetable ? "timetable" : "event-driven";
}

RecoveryPolicy parse_recovery_policy(std::string_view name) {
  if (name == "fail-stop" || name == "failstop") {
    return RecoveryPolicy::kFailStop;
  }
  if (name == "retry") {
    return RecoveryPolicy::kRetry;
  }
  if (name == "reschedule") {
    return RecoveryPolicy::kReschedule;
  }
  throw std::invalid_argument(
      "unknown recovery policy '" + std::string(name) +
      "' (accepted: fail-stop, retry, reschedule)");
}

DispatchMode parse_dispatch_mode(std::string_view name) {
  if (name == "timetable") {
    return DispatchMode::kTimetable;
  }
  if (name == "event-driven" || name == "eventdriven") {
    return DispatchMode::kEventDriven;
  }
  throw std::invalid_argument("unknown dispatch mode '" + std::string(name) +
                              "' (accepted: timetable, event-driven)");
}

namespace {

constexpr std::uint32_t kNone32 = std::numeric_limits<std::uint32_t>::max();

// ---------------------------------------------------------------------------
// Event queue: (time, kind rank, push sequence) order. The rank order at
// one timestamp is load-bearing: heals first (a resource repaired at t can
// serve work dispatched at t), then completions (work finishing exactly when
// a fault strikes has completed), then timetable releases, then faults.
// The releases known before a round starts sit in a presorted stream, the
// rest in a min-heap; a pop takes the lesser head of the two.
// ---------------------------------------------------------------------------

enum class EventKind : std::uint8_t {
  kHealProcessor,
  kHealLink,
  kTaskFinish,
  kTransferFinish,
  kReleaseTask,      ///< a task's anchor or retry time (kNone32: round start)
  kReleaseTransfer,  ///< a transfer op's anchor or retry time
  kFault,
};

int event_rank(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kHealProcessor:
    case EventKind::kHealLink:
      return 0;
    case EventKind::kTaskFinish:
    case EventKind::kTransferFinish:
      return 1;
    case EventKind::kReleaseTask:
    case EventKind::kReleaseTransfer:
      return 2;
    case EventKind::kFault:
      return 3;
  }
  return 4;
}

struct Event {
  double time = 0.0;
  int rank = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kReleaseTask;
  std::uint32_t index = 0;
  std::uint32_t gen = 0;  ///< invalidates finish events of killed attempts
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    if (a.rank != b.rank) {
      return a.rank > b.rank;
    }
    return a.seq > b.seq;
  }
};

enum class OpState : std::uint8_t { kPending, kRunning, kDone };

struct TaskOp {
  std::uint32_t proc = 0;  ///< round-local node index
  std::uint32_t orig = 0;  ///< original task id
  double anchor_start = 0.0;
  double anchor_finish = 0.0;
  std::uint32_t arrivals_pending = 0;
  OpState state = OpState::kPending;
  double start = 0.0;
  double finish = 0.0;
  double retry_not_before = 0.0;
  std::uint32_t kills = 0;
  std::uint32_t gen = 0;
  bool stub = false;
};

struct TransferOp {
  std::uint32_t edge = 0;       ///< round-local edge id
  std::uint32_t orig_edge = 0;  ///< original edge id (sampler stream key)
  std::uint32_t chain_prev = kNone32;
  std::uint32_t chain_next = kNone32;
  std::uint32_t link = kNone32;    ///< round-local link index
  std::uint32_t domain = kNone32;  ///< set only when serialized
  double anchor_start = 0.0;
  double anchor_finish = 0.0;
  bool serialized = false;  ///< exclusive slot: one at a time per domain
  bool fluid = false;       ///< cut-through: starts once upstream starts
  bool last_hop = false;    ///< completion contributes to the edge arrival
  OpState state = OpState::kPending;
  double start = 0.0;
  double finish = 0.0;
  double retry_not_before = 0.0;
  std::uint32_t attempts = 0;  ///< factor stream index (counts starts)
  std::uint32_t kills = 0;
  std::uint32_t gen = 0;
};

struct ProcState {
  std::vector<std::uint32_t> queue;  ///< task ops in planned start order
  std::size_t next = 0;              ///< first not-yet-finished queue slot
  std::uint32_t running = kNone32;
  bool up = true;
  bool dead = false;
  double down_until = 0.0;
};

struct LinkState {
  bool up = true;
  bool dead = false;
  double down_until = 0.0;
};

struct DomainState {
  std::vector<std::uint32_t> queue;  ///< serialized ops in planned order
  std::size_t next = 0;
  std::uint32_t running = kNone32;
};

/// Indices awaiting a readiness check, drained in ascending order. An
/// index woken mid-drain ahead of the cursor is visited in the same drain;
/// one at or behind it waits for the next, exactly where a linear scan
/// over all indices would next reach it.
class WakeSet {
 public:
  void resize(std::size_t size) { queued_.assign(size, 0); }

  void wake(std::uint32_t i) {
    if (queued_[i] != 0) {
      return;
    }
    queued_[i] = 1;
    if (draining_ && i <= cursor_) {
      deferred_.push_back(i);
    } else {
      heap_.push(i);
    }
  }

  /// Visits every woken index once, in ascending order; `check` returns
  /// whether it started work. Returns whether any check did.
  template <typename Check>
  bool drain(Check&& check) {
    for (const std::uint32_t i : deferred_) {
      heap_.push(i);
    }
    deferred_.clear();
    bool progress = false;
    draining_ = true;
    while (!heap_.empty()) {
      cursor_ = heap_.top();
      heap_.pop();
      queued_[cursor_] = 0;
      ++checks_;
      progress = check(cursor_) || progress;
    }
    draining_ = false;
    return progress;
  }

  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }

 private:
  std::vector<char> queued_;
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      heap_;
  std::vector<std::uint32_t> deferred_;
  std::uint32_t cursor_ = 0;
  bool draining_ = false;
  std::uint64_t checks_ = 0;
};

/// One master fault localized into the current round's id spaces.
struct RoundFault {
  std::size_t master = 0;  ///< index into the master fault list
  FaultEvent event;        ///< original-id-space event
  std::uint32_t local_target = 0;
};

enum class RoundOutcome { kCompleted, kAborted, kReschedule };

struct RoundResult {
  RoundOutcome outcome = RoundOutcome::kCompleted;
  std::string failure;
  double time = 0.0;
  FaultEvent fault;  ///< trigger, original ids (valid when faulted)
  bool faulted = false;
};

/// Inputs of one execution round: the plan to replay plus maps between the
/// round's id spaces and the original instance's.
struct RoundContext {
  const dag::TaskGraph* graph = nullptr;
  const net::Topology* topology = nullptr;
  const sched::Schedule* schedule = nullptr;
  double t0 = 0.0;
  std::vector<std::uint32_t> task_orig;  ///< round task -> original task
  std::vector<std::uint32_t> edge_orig;  ///< round edge -> original edge
  std::vector<std::uint32_t> node_orig;  ///< round node -> original node
  std::vector<std::uint32_t> link_orig;  ///< round link -> original link
  std::vector<net::NodeId> orig_node_local;  ///< original node -> round node
  std::vector<net::LinkId> orig_link_local;  ///< original link -> round link
  std::vector<bool> stub;                    ///< round task -> is stub
};

/// Execution state that survives rescheduling rounds (original id spaces).
struct GlobalState {
  std::vector<bool> consumed;   ///< master faults already injected
  std::vector<bool> dead_proc;  ///< per original node
  std::vector<bool> dead_link;  ///< per original link
  std::vector<char> finished;   ///< per original task
  std::vector<std::uint32_t> attempts;  ///< starts per original task
  std::vector<double> proc_down_until;  ///< transient downtime carryover
  std::vector<double> link_down_until;
};

void log_recovery(const ExecutionOptions& options, const char* action,
                  const FaultEvent* fault, double time,
                  const std::string& algorithm, std::uint32_t remaining,
                  double replan_makespan) {
  // The flight recorder sees every recovery choice whether or not a
  // decision log is installed — that is its whole point.
  obs::flight_recorder().record(
      std::string_view(action) == "abort" ? obs::FlightEventKind::kAbort
                                          : obs::FlightEventKind::kRecovery,
      action, time, remaining, replan_makespan);
  obs::DecisionLog* log = obs::active_decision_log();
  if (log == nullptr) {
    return;
  }
  obs::RecoveryDecision decision;
  decision.policy = std::string(to_string(options.policy));
  decision.action = action;
  if (fault != nullptr) {
    decision.fault_kind =
        fault->kind == FaultKind::kProcessor ? "processor" : "link";
    decision.fault_target = fault->target;
    decision.permanent = fault->permanent;
  }
  decision.time = time;
  decision.algorithm = algorithm;
  decision.tasks_remaining = remaining;
  decision.replan_makespan = replan_makespan;
  log->record(std::move(decision));
}

// ---------------------------------------------------------------------------
// One round: replays one schedule until completion, abort, or a permanent
// fault that demands a replan.
// ---------------------------------------------------------------------------

class Round {
 public:
  Round(const RoundContext& ctx, const ExecutionOptions& options,
        const RuntimeSampler& sampler, const std::vector<FaultEvent>& master,
        GlobalState& gs, ExecutionReport& report)
      : ctx_(ctx),
        options_(options),
        sampler_(sampler),
        gs_(gs),
        report_(report),
        graph_(*ctx.graph),
        topology_(*ctx.topology),
        schedule_(*ctx.schedule),
        timetable_(options.dispatch == DispatchMode::kTimetable) {
    build_tasks();
    build_transfers();
    localize_faults(master);
  }

  RoundResult run();

  /// Readiness checks of processors, domains and free ops so far.
  [[nodiscard]] std::uint64_t dispatch_checks() const noexcept {
    return woken_procs_.checks() + woken_domains_.checks() +
           woken_ops_.checks();
  }

 private:
  // -- construction ---------------------------------------------------------

  void build_tasks() {
    const std::size_t num_tasks = graph_.num_tasks();
    tasks_.resize(num_tasks);
    procs_.resize(topology_.num_nodes());
    links_.resize(topology_.num_links());
    for (std::size_t i = 0; i < num_tasks; ++i) {
      const sched::TaskPlacement& placement =
          schedule_.task(dag::TaskId(static_cast<std::uint32_t>(i)));
      throw_if(!placement.placed(), "execute: schedule leaves a task unplaced");
      TaskOp& tk = tasks_[i];
      tk.proc = placement.processor.value();
      tk.orig = ctx_.task_orig[i];
      tk.anchor_start = ctx_.t0 + placement.start;
      tk.anchor_finish = ctx_.t0 + placement.finish;
      tk.arrivals_pending = static_cast<std::uint32_t>(
          graph_.in_edges(dag::TaskId(static_cast<std::uint32_t>(i))).size());
      tk.stub = !ctx_.stub.empty() && ctx_.stub[i];
      procs_[tk.proc].queue.push_back(static_cast<std::uint32_t>(i));
    }
    for (ProcState& p : procs_) {
      std::sort(p.queue.begin(), p.queue.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (tasks_[a].anchor_start != tasks_[b].anchor_start) {
                    return tasks_[a].anchor_start < tasks_[b].anchor_start;
                  }
                  return a < b;
                });
    }
  }

  void add_transfer(TransferOp op) {
    const auto oi = static_cast<std::uint32_t>(transfers_.size());
    if (op.serialized) {
      op.domain = topology_.domain(net::LinkId(op.link)).value();
    }
    if (op.chain_prev != kNone32) {
      transfers_[op.chain_prev].chain_next = oi;
    }
    if (op.link != kNone32) {
      link_ops_[op.link].push_back(oi);
    }
    transfers_.push_back(op);
  }

  void build_transfers() {
    const std::size_t num_edges = graph_.num_edges();
    edge_last_remaining_.assign(num_edges, 0);
    edge_ops_.assign(num_edges + 1, 0);
    link_ops_.resize(topology_.num_links());
    for (std::size_t e = 0; e < num_edges; ++e) {
      edge_ops_[e] = static_cast<std::uint32_t>(transfers_.size());
      const dag::EdgeId edge_id(static_cast<std::uint32_t>(e));
      const sched::Communication comm = schedule_.communication(edge_id);
      const double src_finish =
          schedule_.task(graph_.edge(edge_id).src).finish;
      // One op per hop of a chain; hop(h) is (link, planned start,
      // planned finish).
      const auto add_chain = [&](std::size_t hops, bool serialized,
                                 bool fluid, const auto& hop) {
        std::uint32_t prev = kNone32;
        for (std::size_t h = 0; h < hops; ++h) {
          const auto [link, start, finish] = hop(h);
          TransferOp op;
          op.edge = static_cast<std::uint32_t>(e);
          op.orig_edge = ctx_.edge_orig[e];
          op.chain_prev = prev;
          op.link = link;
          op.serialized = serialized;
          op.fluid = fluid;
          op.anchor_start = ctx_.t0 + start;
          op.anchor_finish = ctx_.t0 + finish;
          op.last_hop = h + 1 == hops;
          prev = static_cast<std::uint32_t>(transfers_.size());
          add_transfer(op);
        }
      };
      const auto slot = [&comm](std::size_t i) {
        const sched::LinkOccupation& occ = comm.occupations[i];
        return std::tuple{occ.link.value(), occ.start, occ.finish};
      };
      using Kind = sched::Communication::Kind;
      switch (comm.kind) {
        case Kind::kLocal:
          break;  // arrival completes when the source finishes
        case Kind::kContentionFree:
          add_chain(1, false, false, [&](std::size_t) {
            return std::tuple{kNone32, src_finish, comm.arrival};
          });
          edge_last_remaining_[e] = 1;
          break;
        case Kind::kExclusive:
          if (comm.occupations.empty()) {
            break;
          }
          // Cut-through forwarding (network_state.cpp): a downstream
          // slot starts once the upstream slot started, not finished.
          add_chain(comm.occupations.size(), true, true, slot);
          edge_last_remaining_[e] = 1;
          break;
        case Kind::kPacketized: {
          if (comm.occupations.empty()) {
            break;
          }
          const std::size_t hops = comm.route.size();
          throw_if(hops == 0 ||
                       comm.occupations.size() != comm.packet_count * hops,
                   "execute: malformed packetized communication");
          for (std::size_t p = 0; p < comm.packet_count; ++p) {
            add_chain(hops, true, false,
                      [&](std::size_t h) { return slot(p * hops + h); });
          }
          edge_last_remaining_[e] =
              static_cast<std::uint32_t>(comm.packet_count);
          break;
        }
        case Kind::kBandwidth:
          if (comm.profiles.empty()) {
            break;
          }
          throw_if(comm.profiles.size() != comm.route.size(),
                   "execute: malformed bandwidth communication");
          add_chain(comm.profiles.size(), false, true, [&](std::size_t h) {
            const timeline::RateProfileView profile = comm.profiles[h];
            return std::tuple{comm.route[h].value(), profile.start_time(),
                              profile.finish_time()};
          });
          edge_last_remaining_[e] = 1;
          break;
      }
    }
    edge_ops_[num_edges] = static_cast<std::uint32_t>(transfers_.size());
    // Serialized ops queue per contention domain in planned slot order.
    domains_.resize(topology_.num_domains());
    for (std::size_t i = 0; i < transfers_.size(); ++i) {
      const TransferOp& op = transfers_[i];
      if (op.serialized) {
        domains_[op.domain].queue.push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (DomainState& d : domains_) {
      std::sort(d.queue.begin(), d.queue.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const TransferOp& ta = transfers_[a];
                  const TransferOp& tb = transfers_[b];
                  if (ta.anchor_start != tb.anchor_start) {
                    return ta.anchor_start < tb.anchor_start;
                  }
                  if (ta.anchor_finish != tb.anchor_finish) {
                    return ta.anchor_finish < tb.anchor_finish;
                  }
                  if (ta.edge != tb.edge) {
                    return ta.edge < tb.edge;
                  }
                  return a < b;
                });
    }
  }

  void localize_faults(const std::vector<FaultEvent>& master) {
    for (std::size_t m = 0; m < master.size(); ++m) {
      if (gs_.consumed[m]) {
        continue;
      }
      const FaultEvent& fe = master[m];
      RoundFault rf;
      rf.master = m;
      rf.event = fe;
      if (fe.kind == FaultKind::kProcessor) {
        const net::NodeId local = ctx_.orig_node_local[fe.target];
        if (!local.valid()) {
          gs_.consumed[m] = true;  // resource no longer exists
          continue;
        }
        rf.local_target = local.value();
      } else {
        const net::LinkId local = ctx_.orig_link_local[fe.target];
        if (!local.valid()) {
          gs_.consumed[m] = true;
          continue;
        }
        rf.local_target = local.value();
      }
      faults_.push_back(rf);
    }
  }

  // -- event plumbing -------------------------------------------------------

  void push_event(double time, EventKind kind, std::uint32_t index,
                  std::uint32_t gen) {
    events_.push(Event{time, event_rank(kind), seq_++, kind, index, gen});
  }

  /// Appends a release to the presorted stream, numbered in push order
  /// like `push_event`'s; `run` sorts the stream before its first pop.
  void stream_release(double time, EventKind kind, std::uint32_t index) {
    releases_.push_back(Event{time, event_rank(kind), seq_++, kind, index, 0});
  }

  [[nodiscard]] bool has_events() const noexcept {
    return next_release_ < releases_.size() || !events_.empty();
  }

  /// True when the stream's head precedes the heap's top. The keys are a
  /// total order (`seq` is unique), so the merge pops exactly the
  /// sequence one heap holding every event would.
  [[nodiscard]] bool release_first() const {
    return next_release_ < releases_.size() &&
           (events_.empty() ||
            EventLater()(events_.top(), releases_[next_release_]));
  }

  [[nodiscard]] double next_event_time() const {
    return release_first() ? releases_[next_release_].time
                           : events_.top().time;
  }

  Event pop_event() {
    if (release_first()) {
      return releases_[next_release_++];
    }
    const Event ev = events_.top();
    events_.pop();
    return ev;
  }

  // -- dispatch -------------------------------------------------------------

  [[nodiscard]] std::uint32_t edge_src_task(std::uint32_t edge) const {
    return graph_.edge(dag::EdgeId(edge)).src.value();
  }

  [[nodiscard]] bool transfer_ready(const TransferOp& op, double now) const {
    if (op.state != OpState::kPending || now < op.retry_not_before) {
      return false;
    }
    if (timetable_ && now < op.anchor_start) {
      return false;
    }
    if (op.link != kNone32 && !links_[op.link].up) {
      return false;
    }
    if (op.chain_prev == kNone32) {
      return tasks_[edge_src_task(op.edge)].state == OpState::kDone;
    }
    const TransferOp& prev = transfers_[op.chain_prev];
    // Cut-through hops (exclusive, bandwidth) forward as soon as the
    // upstream hop flows; packetized hops store-and-forward behind the
    // fully crossed previous hop.
    return op.fluid ? prev.state != OpState::kPending
                    : prev.state == OpState::kDone;
  }

  bool start_transfer_if_ready(std::uint32_t oi, double now) {
    if (!transfer_ready(transfers_[oi], now)) {
      return false;
    }
    start_transfer(oi, now);
    return true;
  }

  /// Queues a readiness check of op `oi`: of its domain's head when it
  /// is serialized, of the op itself otherwise.
  void wake_op(std::uint32_t oi) {
    const TransferOp& op = transfers_[oi];
    if (op.serialized) {
      woken_domains_.wake(op.domain);
    } else {
      woken_ops_.wake(oi);
    }
  }

  void start_task(std::uint32_t ti, double now) {
    TaskOp& tk = tasks_[ti];
    const std::uint32_t attempt = gs_.attempts[tk.orig]++;
    const double factor = sampler_.task_factor(tk.orig, attempt);
    const double duration = tk.anchor_finish - tk.anchor_start;
    tk.start = now;
    // Exact-finish shortcut: an on-time nominal start reproduces the
    // predicted finish bit-for-bit (start + (finish - start) would not).
    tk.finish = (now == tk.anchor_start && factor == 1.0)
                    ? tk.anchor_finish
                    : now + duration * factor;
    tk.state = OpState::kRunning;
    procs_[tk.proc].running = ti;
    push_event(tk.finish, EventKind::kTaskFinish, ti, tk.gen);
  }

  void start_transfer(std::uint32_t oi, double now) {
    TransferOp& op = transfers_[oi];
    const double factor = sampler_.bandwidth_factor(op.orig_edge, op.attempts);
    ++op.attempts;
    const double duration = op.anchor_finish - op.anchor_start;
    double finish = (now == op.anchor_start && factor == 1.0)
                        ? op.anchor_finish
                        : now + duration * factor;
    if (op.fluid && op.chain_prev != kNone32) {
      // A hop cannot finish before the upstream hop finishes delivering.
      finish = std::max(finish, transfers_[op.chain_prev].finish);
    }
    op.state = OpState::kRunning;
    op.start = now;
    op.finish = finish;
    if (op.serialized) {
      domains_[op.domain].running = oi;
    }
    push_event(finish, EventKind::kTransferFinish, oi, op.gen);
    if (op.chain_next != kNone32) {
      wake_op(op.chain_next);
    }
  }

  /// Starts every woken resource that is ready, in the order a full scan
  /// would: processors by index, then domains, then free ops, repeated
  /// while a pass started something. Only starts wake others (a started
  /// hop wakes its downstream one), so a pass without progress ends it.
  void dispatch(double now) {
    bool progress = true;
    while (progress) {
      progress = woken_procs_.drain([&](std::uint32_t np) {
        const ProcState& p = procs_[np];
        if (!p.up || p.running != kNone32 || p.next >= p.queue.size()) {
          return false;
        }
        const std::uint32_t ti = p.queue[p.next];
        const TaskOp& tk = tasks_[ti];
        if (tk.state != OpState::kPending || tk.arrivals_pending > 0 ||
            now < tk.retry_not_before ||
            (timetable_ && now < tk.anchor_start)) {
          return false;
        }
        start_task(ti, now);
        return true;
      });
      progress = woken_domains_.drain([&](std::uint32_t di) {
        const DomainState& d = domains_[di];
        if (d.running != kNone32 || d.next >= d.queue.size()) {
          return false;
        }
        return start_transfer_if_ready(d.queue[d.next], now);
      }) || progress;
      progress = woken_ops_.drain([&](std::uint32_t oi) {
        return start_transfer_if_ready(oi, now);
      }) || progress;
    }
  }

  // -- completion -----------------------------------------------------------

  void complete_arrival(std::uint32_t edge) {
    TaskOp& dst = tasks_[graph_.edge(dag::EdgeId(edge)).dst.value()];
    EDGESCHED_ASSERT(dst.arrivals_pending > 0);
    if (--dst.arrivals_pending == 0) {
      woken_procs_.wake(dst.proc);
    }
  }

  void on_task_finish(const Event& ev) {
    TaskOp& tk = tasks_[ev.index];
    if (tk.gen != ev.gen || tk.state != OpState::kRunning) {
      return;  // stale finish of a killed attempt
    }
    tk.state = OpState::kDone;
    ++finished_count_;
    ProcState& p = procs_[tk.proc];
    p.running = kNone32;
    ++p.next;
    woken_procs_.wake(tk.proc);
    if (!tk.stub) {
      gs_.finished[tk.orig] = 1;
      TaskRecord& rec = report_.tasks[tk.orig];
      rec.start = tk.start;
      rec.finish = tk.finish;
      rec.processor = ctx_.node_orig[tk.proc];
      rec.attempts = gs_.attempts[tk.orig];
    }
    for (const dag::EdgeId oe : graph_.out_edges(dag::TaskId(ev.index))) {
      if (edge_last_remaining_[oe.index()] == 0) {
        complete_arrival(oe.value());  // local edge: data is already there
      }
      for (std::uint32_t oi = edge_ops_[oe.index()];
           oi < edge_ops_[oe.index() + 1]; ++oi) {
        if (transfers_[oi].chain_prev == kNone32) {
          wake_op(oi);  // a route's (or a packet's) first hop
        }
      }
    }
  }

  void on_transfer_finish(const Event& ev) {
    TransferOp& op = transfers_[ev.index];
    if (op.gen != ev.gen || op.state != OpState::kRunning) {
      return;
    }
    op.state = OpState::kDone;
    if (op.serialized) {
      DomainState& d = domains_[op.domain];
      d.running = kNone32;
      ++d.next;
      woken_domains_.wake(op.domain);
    }
    if (op.chain_next != kNone32) {
      wake_op(op.chain_next);
    }
    if (op.last_hop && --edge_last_remaining_[op.edge] == 0) {
      complete_arrival(op.edge);
    }
  }

  // -- faults ---------------------------------------------------------------

  void kill_task(std::uint32_t ti, double now) {
    TaskOp& tk = tasks_[ti];
    report_.work_lost += now - tk.start;
    tk.state = OpState::kPending;
    ++tk.gen;
    ++tk.kills;
  }

  /// Returns a running op to pending: a kill on its own link, or a reset
  /// because the upstream flow it forwarded was killed.
  void reset_transfer(std::uint32_t oi) {
    TransferOp& op = transfers_[oi];
    op.state = OpState::kPending;
    ++op.gen;
    if (op.serialized) {
      domains_[op.domain].running = kNone32;
    }
    wake_op(oi);
  }

  [[nodiscard]] bool processor_needed(std::uint32_t np) const {
    const ProcState& p = procs_[np];
    if (p.next < p.queue.size()) {
      return true;  // planned work still pending here
    }
    for (const std::uint32_t ti : p.queue) {
      for (const dag::EdgeId oe : graph_.out_edges(dag::TaskId(ti))) {
        if (edge_last_remaining_[oe.index()] > 0) {
          return true;  // stored output still being shipped
        }
      }
    }
    return false;
  }

  [[nodiscard]] bool link_needed(std::uint32_t l) const {
    for (const std::uint32_t oi : link_ops_[l]) {
      if (transfers_[oi].state != OpState::kDone) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::uint32_t remaining_tasks() const {
    std::uint32_t remaining = 0;
    for (const TaskOp& tk : tasks_) {
      if (tk.state != OpState::kDone && !tk.stub) {
        ++remaining;
      }
    }
    return remaining;
  }

  [[nodiscard]] std::uint32_t surviving_processors() const {
    std::uint32_t up = 0;
    for (const net::NodeId p : topology_.processors()) {
      if (!procs_[p.value()].dead) {
        ++up;
      }
    }
    return up;
  }

  RoundResult abort_round(double now, const FaultEvent* fault,
                          std::string message) {
    RoundResult rr;
    rr.outcome = RoundOutcome::kAborted;
    rr.failure = std::move(message);
    rr.time = now;
    if (fault != nullptr) {
      rr.fault = *fault;
      rr.faulted = true;
    }
    report_.recoveries.push_back(RecoveryRecord{
        now, "abort", "", remaining_tasks(), surviving_processors(), 0.0});
    log_recovery(options_, "abort", fault, now, "", remaining_tasks(), 0.0);
    return rr;
  }

  std::optional<RoundResult> handle_fault(const RoundFault& rf, double now) {
    gs_.consumed[rf.master] = true;
    const FaultEvent& fe = rf.event;
    std::vector<std::uint32_t> killed_tasks;
    std::vector<std::uint32_t> killed_transfers;
    double heal_at = now;
    if (fe.kind == FaultKind::kProcessor) {
      ProcState& p = procs_[rf.local_target];
      if (p.dead) {
        return std::nullopt;  // double fault on a dead resource: no-op
      }
      if (p.running != kNone32) {
        killed_tasks.push_back(p.running);
        kill_task(p.running, now);
        p.running = kNone32;
      }
      if (fe.permanent) {
        p.dead = true;
        p.up = false;
        gs_.dead_proc[fe.target] = true;
      } else {
        p.up = false;
        const double until = now + fe.repair;
        if (until > p.down_until) {
          p.down_until = until;
          push_event(until, EventKind::kHealProcessor, rf.local_target, 0);
        }
        gs_.proc_down_until[fe.target] =
            std::max(gs_.proc_down_until[fe.target], p.down_until);
        heal_at = p.down_until;
      }
    } else {
      LinkState& ls = links_[rf.local_target];
      if (ls.dead) {
        return std::nullopt;
      }
      for (const std::uint32_t oi : link_ops_[rf.local_target]) {
        if (transfers_[oi].state == OpState::kRunning) {
          killed_transfers.push_back(oi);  // ascending op index
          ++transfers_[oi].kills;
          reset_transfer(oi);
        }
      }
      // Cut-through cascade: a downstream hop forwarding the killed flow
      // carries incomplete data — reset it to re-run with its upstream
      // (no kill charge; its own link is healthy). No running hop had a
      // pending upstream before this fault, so the running hops behind
      // each killed one are exactly the ones to reset.
      for (const std::uint32_t oi : killed_transfers) {
        for (std::uint32_t next = transfers_[oi].chain_next;
             next != kNone32 &&
             transfers_[next].state == OpState::kRunning;
             next = transfers_[next].chain_next) {
          reset_transfer(next);
        }
      }
      if (fe.permanent) {
        ls.dead = true;
        ls.up = false;
        gs_.dead_link[fe.target] = true;
      } else {
        ls.up = false;
        const double until = now + fe.repair;
        if (until > ls.down_until) {
          ls.down_until = until;
          push_event(until, EventKind::kHealLink, rf.local_target, 0);
        }
        gs_.link_down_until[fe.target] =
            std::max(gs_.link_down_until[fe.target], ls.down_until);
        heal_at = ls.down_until;
      }
    }
    const std::uint32_t killed = static_cast<std::uint32_t>(
        killed_tasks.size() + killed_transfers.size());
    ++report_.faults_injected;
    report_.faults.push_back(FaultRecord{
        now, fe.kind == FaultKind::kProcessor ? "processor" : "link",
        fe.target, fe.permanent, fe.permanent ? 0.0 : fe.repair, killed});
    obs::flight_recorder().record(
        obs::FlightEventKind::kFault,
        fe.kind == FaultKind::kProcessor ? "exec/fault_processor"
                                         : "exec/fault_link",
        now, fe.target, static_cast<double>(killed));

    if (options_.policy == RecoveryPolicy::kFailStop) {
      if (fe.permanent || killed > 0) {
        std::ostringstream os;
        os << "fail-stop: "
           << (fe.kind == FaultKind::kProcessor ? "processor " : "link ")
           << fe.target << (fe.permanent ? " failed permanently" : " fault")
           << " at t=" << now;
        return abort_round(now, &fe, os.str());
      }
      ++report_.faults_survived;
      return std::nullopt;
    }

    if (!fe.permanent) {
      // Retry killed work in place once the resource heals.
      for (const std::uint32_t ti : killed_tasks) {
        TaskOp& tk = tasks_[ti];
        if (tk.kills > options_.max_retries) {
          std::ostringstream os;
          os << "retry limit exceeded: task " << tk.orig << " killed "
             << tk.kills << " times";
          return abort_round(now, &fe, os.str());
        }
        tk.retry_not_before = heal_at + options_.retry_backoff * tk.kills;
        push_event(tk.retry_not_before, EventKind::kReleaseTask, ti, 0);
        ++report_.retries;
      }
      for (const std::uint32_t oi : killed_transfers) {
        TransferOp& op = transfers_[oi];
        if (op.kills > options_.max_retries) {
          std::ostringstream os;
          os << "retry limit exceeded: edge " << op.orig_edge << " killed "
             << op.kills << " times";
          return abort_round(now, &fe, os.str());
        }
        op.retry_not_before = heal_at + options_.retry_backoff * op.kills;
        push_event(op.retry_not_before, EventKind::kReleaseTransfer, oi, 0);
        ++report_.retries;
      }
      if (killed > 0) {
        log_recovery(options_, "retry", &fe, now, "", remaining_tasks(), 0.0);
      }
      ++report_.faults_survived;
      return std::nullopt;
    }

    // Permanent fault under retry/reschedule.
    const bool needed = fe.kind == FaultKind::kProcessor
                            ? processor_needed(rf.local_target)
                            : link_needed(rf.local_target);
    if (!needed) {
      ++report_.faults_survived;
      return std::nullopt;
    }
    if (options_.policy == RecoveryPolicy::kRetry) {
      std::ostringstream os;
      os << "permanent "
         << (fe.kind == FaultKind::kProcessor ? "processor " : "link ")
         << fe.target << " failure strands pending work under retry policy";
      return abort_round(now, &fe, os.str());
    }
    RoundResult rr;
    rr.outcome = RoundOutcome::kReschedule;
    rr.time = now;
    rr.fault = fe;
    rr.faulted = true;
    return rr;
  }

  // -- round state ----------------------------------------------------------

  const RoundContext& ctx_;
  const ExecutionOptions& options_;
  const RuntimeSampler& sampler_;
  GlobalState& gs_;
  ExecutionReport& report_;
  const dag::TaskGraph& graph_;
  const net::Topology& topology_;
  const sched::Schedule& schedule_;
  const bool timetable_;

  std::vector<TaskOp> tasks_;
  std::vector<TransferOp> transfers_;
  std::vector<ProcState> procs_;
  std::vector<LinkState> links_;
  std::vector<DomainState> domains_;
  std::vector<std::uint32_t> edge_last_remaining_;
  std::vector<std::uint32_t> edge_ops_;  ///< edge e owns ops [e], [e + 1])
  std::vector<std::vector<std::uint32_t>> link_ops_;  ///< ascending per link
  std::vector<RoundFault> faults_;
  WakeSet woken_procs_;
  WakeSet woken_domains_;
  WakeSet woken_ops_;  ///< non-serialized transfer ops only

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  /// The round-start release and, under timetable dispatch, every task's
  /// and transfer op's anchor release, in pop order from `next_release_`.
  std::vector<Event> releases_;
  std::size_t next_release_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t finished_count_ = 0;
};

RoundResult Round::run() {
  // Every processor and op starts woken (a serialized op wakes its
  // domain), so the first dispatch starts what a full scan would.
  woken_procs_.resize(procs_.size());
  woken_domains_.resize(domains_.size());
  woken_ops_.resize(transfers_.size());
  for (std::size_t np = 0; np < procs_.size(); ++np) {
    woken_procs_.wake(static_cast<std::uint32_t>(np));
  }
  for (std::size_t oi = 0; oi < transfers_.size(); ++oi) {
    wake_op(static_cast<std::uint32_t>(oi));
  }

  releases_.reserve(1 + (timetable_ ? tasks_.size() + transfers_.size() : 0));
  stream_release(ctx_.t0, EventKind::kReleaseTask, kNone32);
  if (timetable_) {
    for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
      stream_release(tasks_[ti].anchor_start, EventKind::kReleaseTask,
                     static_cast<std::uint32_t>(ti));
    }
    for (std::size_t oi = 0; oi < transfers_.size(); ++oi) {
      stream_release(transfers_[oi].anchor_start, EventKind::kReleaseTransfer,
                     static_cast<std::uint32_t>(oi));
    }
  }
  std::sort(releases_.begin(), releases_.end(),
            [](const Event& a, const Event& b) { return EventLater()(b, a); });
  // Transient downtime carried across a replan boundary.
  for (std::size_t np = 0; np < procs_.size(); ++np) {
    const double until = gs_.proc_down_until[ctx_.node_orig[np]];
    if (until > ctx_.t0) {
      procs_[np].up = false;
      procs_[np].down_until = until;
      push_event(until, EventKind::kHealProcessor,
                 static_cast<std::uint32_t>(np), 0);
    }
  }
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const double until = gs_.link_down_until[ctx_.link_orig[l]];
    if (until > ctx_.t0) {
      links_[l].up = false;
      links_[l].down_until = until;
      push_event(until, EventKind::kHealLink, static_cast<std::uint32_t>(l),
                 0);
    }
  }
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    push_event(faults_[f].event.time, EventKind::kFault,
               static_cast<std::uint32_t>(f), 0);
  }

  double last_time = ctx_.t0;
  while (has_events() && finished_count_ < tasks_.size()) {
    const double now = next_event_time();
    last_time = now;
    obs::Span epoch("exec/epoch", "exec");
    while (has_events() && next_event_time() == now) {
      const Event ev = pop_event();
      ++report_.events;
      switch (ev.kind) {
        case EventKind::kHealProcessor: {
          ProcState& p = procs_[ev.index];
          if (!p.dead && p.down_until <= now) {
            p.up = true;
            woken_procs_.wake(ev.index);
          }
          break;
        }
        case EventKind::kHealLink: {
          LinkState& ls = links_[ev.index];
          if (!ls.dead && ls.down_until <= now) {
            ls.up = true;
            for (const std::uint32_t oi : link_ops_[ev.index]) {
              if (transfers_[oi].state == OpState::kPending) {
                wake_op(oi);
              }
            }
          }
          break;
        }
        case EventKind::kTaskFinish:
          on_task_finish(ev);
          break;
        case EventKind::kTransferFinish:
          on_transfer_finish(ev);
          break;
        case EventKind::kReleaseTask:
          if (ev.index != kNone32) {
            woken_procs_.wake(tasks_[ev.index].proc);
          }
          break;
        case EventKind::kReleaseTransfer:
          wake_op(ev.index);
          break;
        case EventKind::kFault: {
          std::optional<RoundResult> result = handle_fault(faults_[ev.index], now);
          if (result.has_value()) {
            return *result;
          }
          break;
        }
      }
    }
    dispatch(now);
  }
  if (finished_count_ == tasks_.size()) {
    RoundResult rr;
    rr.outcome = RoundOutcome::kCompleted;
    rr.time = last_time;
    return rr;
  }
  std::ostringstream os;
  os << "executor stalled: " << remaining_tasks()
     << " tasks unfinished with no pending events";
  return abort_round(last_time, nullptr, os.str());
}

/// Storage of one replanning round; heap-allocated so the RoundContext's
/// pointers into it stay stable.
struct Replan {
  dag::Subgraph sub;
  SurvivingTopology surv;
  /// Platform snapshot derived from the surviving topology; later rounds
  /// against the same fabric (and the validator-facing replan itself)
  /// reuse its route table instead of re-deriving per call.
  std::unique_ptr<sched::PlatformContext> platform;
  std::unique_ptr<sched::Schedule> plan;
  RoundContext ctx;
};

}  // namespace

ExecutionReport execute(const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const sched::Schedule& schedule,
                        const ExecutionOptions& options) {
  // Reuse the caller's run scope (service job, CLI) so the report and every
  // event recorded below correlate. Bare calls stay at kNoRun: minting here
  // would make same-seed reports differ byte-wise, breaking determinism
  // guarantee 2 (docs/runtime.md).
  const obs::ScopedRunId run_scope(obs::current_run_id());
  obs::Span span("exec/execute", "exec");
  options.model.validate();
  options.faults.validate(topology);
  // Written so NaN fails too: a NaN backoff would queue a retry at time
  // NaN, a negative delay would start a replan before its fault.
  throw_if(!(std::isfinite(options.retry_backoff) &&
             options.retry_backoff >= 0.0),
           "execute: retry_backoff must be finite and >= 0");
  throw_if(!(std::isfinite(options.reschedule_delay) &&
             options.reschedule_delay >= 0.0),
           "execute: reschedule_delay must be finite and >= 0");
  throw_if(schedule.num_tasks() != graph.num_tasks() ||
               schedule.num_edges() != graph.num_edges(),
           "execute: schedule shape does not match graph");
  if (options.policy == RecoveryPolicy::kReschedule &&
      !options.recovery_algorithm.empty()) {
    throw_if(sched::find_algorithm(options.recovery_algorithm) == nullptr,
             "execute: unknown recovery algorithm '" +
                 options.recovery_algorithm + "'");
  }

  const RuntimeSampler sampler(options.model);
  ExecutionReport report;
  report.run_id = obs::current_run_id();
  report.algorithm = schedule.algorithm();
  report.predicted_makespan = schedule.makespan();
  obs::flight_recorder().record(obs::FlightEventKind::kExecStart,
                                "exec/execute", 0.0, graph.num_tasks(),
                                schedule.makespan());
  report.tasks.resize(graph.num_tasks());
  for (std::size_t i = 0; i < graph.num_tasks(); ++i) {
    const sched::TaskPlacement& placement =
        schedule.task(dag::TaskId(static_cast<std::uint32_t>(i)));
    TaskRecord& rec = report.tasks[i];
    rec.task = static_cast<std::uint32_t>(i);
    rec.processor = placement.placed() ? placement.processor.value() : kNone32;
    rec.predicted_start = placement.start;
    rec.predicted_finish = placement.finish;
    rec.attempts = 0;
  }

  const std::vector<FaultEvent>& master = options.faults.events();
  GlobalState gs;
  gs.consumed.assign(master.size(), false);
  gs.dead_proc.assign(topology.num_nodes(), false);
  gs.dead_link.assign(topology.num_links(), false);
  gs.finished.assign(graph.num_tasks(), 0);
  gs.attempts.assign(graph.num_tasks(), 0);
  gs.proc_down_until.assign(topology.num_nodes(), 0.0);
  gs.link_down_until.assign(topology.num_links(), 0.0);

  // Round 0: identity maps over the original instance.
  RoundContext ctx0;
  ctx0.graph = &graph;
  ctx0.topology = &topology;
  ctx0.schedule = &schedule;
  ctx0.t0 = 0.0;
  ctx0.task_orig.resize(graph.num_tasks());
  for (std::size_t i = 0; i < graph.num_tasks(); ++i) {
    ctx0.task_orig[i] = static_cast<std::uint32_t>(i);
  }
  ctx0.edge_orig.resize(graph.num_edges());
  for (std::size_t e = 0; e < graph.num_edges(); ++e) {
    ctx0.edge_orig[e] = static_cast<std::uint32_t>(e);
  }
  ctx0.node_orig.resize(topology.num_nodes());
  ctx0.orig_node_local.resize(topology.num_nodes());
  for (std::size_t n = 0; n < topology.num_nodes(); ++n) {
    ctx0.node_orig[n] = static_cast<std::uint32_t>(n);
    ctx0.orig_node_local[n] = net::NodeId(static_cast<std::uint32_t>(n));
  }
  ctx0.link_orig.resize(topology.num_links());
  ctx0.orig_link_local.resize(topology.num_links());
  for (std::size_t l = 0; l < topology.num_links(); ++l) {
    ctx0.link_orig[l] = static_cast<std::uint32_t>(l);
    ctx0.orig_link_local[l] = net::LinkId(static_cast<std::uint32_t>(l));
  }

  std::vector<std::unique_ptr<Replan>> replans;
  const RoundContext* current = &ctx0;
  obs::HotCounters& hot = obs::hot_counters();

  while (true) {
    const std::uint64_t events_before = report.events;
    const std::uint32_t faults_before = report.faults_injected;
    const std::uint32_t retries_before = report.retries;
    Round round(*current, options, sampler, master, gs, report);
    const RoundResult rr = round.run();
    // Flush the round's hot counters in one batch per round.
    hot.exec_events.increment(report.events - events_before);
    hot.exec_dispatch_checks.increment(round.dispatch_checks());
    hot.exec_faults.increment(report.faults_injected - faults_before);
    hot.exec_retries.increment(report.retries - retries_before);
    obs::flight_recorder().record(obs::FlightEventKind::kExecRound,
                                  "exec/round", rr.time, report.reschedules,
                                  static_cast<double>(report.events));

    if (rr.outcome == RoundOutcome::kCompleted) {
      report.completed = true;
      break;
    }
    if (rr.outcome == RoundOutcome::kAborted) {
      report.completed = false;
      report.failure = rr.failure;
      break;
    }

    // Permanent fault stranded work: replan the remaining subgraph on the
    // surviving topology.
    const FaultEvent* fault = rr.faulted ? &rr.fault : nullptr;
    if (report.reschedules >= options.max_reschedules) {
      report.completed = false;
      report.failure = "reschedule limit exceeded";
      report.recoveries.push_back(
          RecoveryRecord{rr.time, "abort", "", 0, 0, 0.0});
      log_recovery(options, "abort", fault, rr.time, "", 0, 0.0);
      break;
    }
    obs::Span replan_span("exec/replan", "exec");
    auto rp = std::make_unique<Replan>();
    rp->surv = surviving_topology(topology, gs.dead_proc, gs.dead_link);
    if (rp->surv.topology.num_processors() == 0 ||
        !rp->surv.topology.processors_connected()) {
      report.completed = false;
      report.failure =
          "unrecoverable: surviving topology has no connected processors";
      report.recoveries.push_back(RecoveryRecord{
          rr.time, "abort", "", 0,
          static_cast<std::uint32_t>(rp->surv.topology.num_processors()),
          0.0});
      log_recovery(options, "abort", fault, rr.time, "", 0, 0.0);
      break;
    }

    // What must re-run: every unfinished task plus the closure of finished
    // tasks whose outputs died with a processor.
    std::vector<bool> finished(graph.num_tasks());
    std::vector<bool> lost(graph.num_tasks(), false);
    for (std::size_t t = 0; t < graph.num_tasks(); ++t) {
      finished[t] = gs.finished[t] != 0;
      lost[t] = finished[t] && report.tasks[t].processor != kNone32 &&
                gs.dead_proc[report.tasks[t].processor];
    }
    const RemainingWork work = remaining_work(graph, finished, lost);
    for (const dag::TaskId t : work.rerun) {
      if (gs.finished[t.index()] != 0) {
        // A finished result died with its processor: bill the lost
        // computation and mark the task unfinished again.
        report.work_lost +=
            report.tasks[t.index()].finish - report.tasks[t.index()].start;
        gs.finished[t.index()] = 0;
      }
    }

    std::vector<dag::TaskId> members = work.rerun;
    members.insert(members.end(), work.stubs.begin(), work.stubs.end());
    std::sort(members.begin(), members.end());
    rp->sub = dag::induced_subgraph(graph, members);
    std::vector<bool> stub_flags(rp->sub.graph.num_tasks(), false);
    for (const dag::TaskId s : work.stubs) {
      const dag::TaskId ns = rp->sub.new_id[s.index()];
      stub_flags[ns.index()] = true;
      rp->sub.graph.set_weight(ns, 0.0);
    }
    // Maps between the sub-instance and original id spaces.
    std::vector<std::uint32_t> old_of(rp->sub.graph.num_tasks(), kNone32);
    for (std::size_t t = 0; t < graph.num_tasks(); ++t) {
      if (rp->sub.new_id[t].valid()) {
        old_of[rp->sub.new_id[t].index()] = static_cast<std::uint32_t>(t);
      }
    }
    std::vector<std::uint32_t> sub_edge_orig(rp->sub.graph.num_edges());
    for (std::size_t e = 0; e < rp->sub.graph.num_edges(); ++e) {
      const dag::EdgeId sub_edge(e);
      sub_edge_orig[e] = rp->sub.old_edge[e].value();
      if (stub_flags[rp->sub.graph.edge(sub_edge).dst.index()]) {
        // Stubs need no inputs — they stand in for data already produced.
        rp->sub.graph.set_cost(sub_edge, 0.0);
      }
    }

    const std::string algorithm = options.recovery_algorithm.empty()
                                      ? schedule.algorithm()
                                      : options.recovery_algorithm;
    try {
      const std::unique_ptr<sched::Scheduler> scheduler =
          sched::make_scheduler(algorithm);
      rp->platform =
          std::make_unique<sched::PlatformContext>(rp->surv.topology);
      rp->plan = std::make_unique<sched::Schedule>(
          scheduler->schedule(rp->sub.graph, *rp->platform));
      sched::validate_or_throw(rp->sub.graph, rp->surv.topology, *rp->plan);
    } catch (const std::exception& error) {
      report.completed = false;
      report.failure = std::string("recovery replan failed: ") + error.what();
      report.recoveries.push_back(RecoveryRecord{
          rr.time, "abort", algorithm,
          static_cast<std::uint32_t>(work.rerun.size()),
          static_cast<std::uint32_t>(rp->surv.topology.num_processors()),
          0.0});
      log_recovery(options, "abort", fault, rr.time, algorithm,
                   static_cast<std::uint32_t>(work.rerun.size()), 0.0);
      break;
    }

    ++report.reschedules;
    ++report.faults_survived;  // the stranding fault is now handled
    hot.exec_reschedules.increment();
    report.recoveries.push_back(RecoveryRecord{
        rr.time, "reschedule", rp->plan->algorithm(),
        static_cast<std::uint32_t>(work.rerun.size()),
        static_cast<std::uint32_t>(rp->surv.topology.num_processors()),
        rp->plan->makespan()});
    log_recovery(options, "reschedule", fault, rr.time, rp->plan->algorithm(),
                 static_cast<std::uint32_t>(work.rerun.size()),
                 rp->plan->makespan());

    RoundContext& ctx = rp->ctx;
    ctx.graph = &rp->sub.graph;
    ctx.topology = &rp->surv.topology;
    ctx.schedule = rp->plan.get();
    ctx.t0 = rr.time + options.reschedule_delay;
    ctx.task_orig = std::move(old_of);
    ctx.edge_orig = std::move(sub_edge_orig);
    ctx.node_orig.resize(rp->surv.topology.num_nodes());
    for (std::size_t n = 0; n < rp->surv.topology.num_nodes(); ++n) {
      ctx.node_orig[n] = rp->surv.to_old_node[n].value();
    }
    ctx.orig_node_local = rp->surv.to_new_node;
    ctx.orig_link_local = rp->surv.to_new_link;
    ctx.link_orig.resize(rp->surv.topology.num_links());
    for (std::size_t l = 0; l < topology.num_links(); ++l) {
      if (rp->surv.to_new_link[l].valid()) {
        ctx.link_orig[rp->surv.to_new_link[l].index()] =
            static_cast<std::uint32_t>(l);
      }
    }
    ctx.stub = std::move(stub_flags);

    replans.push_back(std::move(rp));
    current = &replans.back()->ctx;
  }

  report.finalise();
  obs::flight_recorder().record(obs::FlightEventKind::kExecEnd,
                                "exec/execute", report.achieved_makespan,
                                report.completed ? 1 : 0,
                                report.achieved_makespan);
  if (!report.completed) {
    // Black-box dump on any failed execution (fail-stop abort, retry or
    // reschedule exhaustion, replan/validator failure). Written only
    // when EDGESCHED_POSTMORTEM_DIR is set.
    obs::flight_recorder().maybe_write_postmortem("execution_failed");
  }
  return report;
}

}  // namespace edgesched::exec
