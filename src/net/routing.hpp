// Routing algorithms.
//
// * `bfs_route` — minimal routing of Sinnen's Basic Algorithm: fewest
//   hops, deterministic tie-break.
// * `dijkstra_route_probe` — the paper's *modified routing* (§4.3):
//   Dijkstra whose relaxation key is the tentative finish time of the
//   edge being routed on each link, supplied by a caller probe that
//   consults the current link timelines (basic insertion, §3). Routes
//   therefore steer around loaded links.
// * `RoutingWorkspace` — reusable, epoch-stamped Dijkstra scratch so a
//   scheduler routing thousands of edges allocates its search state once.
// * `StaticRouteTable` — the static routing layer: `bfs_route`'s minimal
//   routes between processors, filled lazily one source at a time and
//   safe to query from any number of threads (sched::PlatformContext
//   owns one per topology).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/counters.hpp"

namespace edgesched::net {

/// Minimal (fewest-hop) route from `from` to `to`. Deterministic: among
/// equal-hop predecessors the first link in id order wins. Throws
/// std::invalid_argument if no route exists. `from == to` yields {}.
[[nodiscard]] Route bfs_route(const Topology& topology, NodeId from,
                              NodeId to);

/// Minimal-route table between the processors of one topology, filled
/// lazily: a source's first `route()` call runs one BFS from it to
/// exhaustion and materialises its route to every reachable processor.
/// Produces byte-identical routes to `bfs_route` — BFS parent assignment
/// is deterministic and prefix-stable, so running each source's search to
/// exhaustion (instead of early-stopping at one destination) changes
/// nothing about any individual route.
///
/// Each source fills exactly once, under its own `std::once_flag`, and a
/// filled shard is never written again, so `route()` is const and safe
/// to call from any number of threads concurrently. Construction runs no
/// search: a table whose routes are never asked for costs one shard
/// header per node. `sched::PlatformContext` owns one per topology and
/// shares it across every run on that fabric.
///
/// Scheduling only ever routes between processors, so switch-to-anything
/// pairs are not materialised; asking for one throws.
class StaticRouteTable {
 public:
  /// Non-owning: `topology` must outlive the table.
  explicit StaticRouteTable(const Topology& topology);

  StaticRouteTable(const StaticRouteTable&) = delete;
  StaticRouteTable& operator=(const StaticRouteTable&) = delete;

  /// The minimal route between two processors; `from == to` yields the
  /// empty route. Both endpoints must be processors of the topology the
  /// table was built from (and mutually reachable).
  [[nodiscard]] const Route& route(NodeId from, NodeId to) const;

 private:
  struct Shard {
    std::once_flag once;
    std::vector<Route> routes;  ///< by destination index
    std::vector<char> cached;
  };
  void fill(NodeId from, Shard& shard) const;

  const Topology* topology_;
  std::unique_ptr<Shard[]> shards_;  ///< by source node index
};

/// Inputs of a link probe: what the edge brings to the link from the
/// previous hop (or from its source task, on the first hop).
struct ProbeState {
  double earliest_start = 0.0;  ///< t_es on this link
  double min_finish = 0.0;      ///< finish may not precede previous link's
};

/// Outputs of a link probe: where the tentative (uncommitted) insertion
/// would place the edge on this link.
struct ProbeResult {
  double virtual_start = 0.0;  ///< t_s — next hop's earliest start
  double finish = 0.0;         ///< t_f — next hop's minimum finish
};

namespace detail {
inline constexpr double kInfiniteTime =
    std::numeric_limits<double>::infinity();

/// Per-node Dijkstra label. Lives in a `RoutingWorkspace`, reset lazily
/// via epoch stamps.
struct DijkstraLabel {
  double finish = kInfiniteTime;
  double start = kInfiniteTime;
  std::size_t hops = 0;
  LinkId parent;
  bool settled = false;
};

/// Min-heap entry ordered by (finish, start, hops, node) for
/// deterministic relaxation.
struct DijkstraQueueEntry {
  double finish;
  double start;
  std::size_t hops;
  NodeId node;
  bool operator>(const DijkstraQueueEntry& other) const {
    if (finish != other.finish) return finish > other.finish;
    if (start != other.start) return start > other.start;
    if (hops != other.hops) return hops > other.hops;
    return node > other.node;
  }
};
}  // namespace detail

/// Reusable Dijkstra scratch: label array, epoch stamps and heap storage.
///
/// ## Epoch semantics
///
/// Every search calls `begin_search(n)`, which bumps the workspace epoch
/// instead of clearing the O(n) label array. `label(i)` compares the
/// node's stamp against the current epoch and lazily resets the label on
/// first touch, so a search over a topology with N nodes initialises
/// only the labels it actually visits. Labels read through `label()` are
/// therefore always from the *current* search; raw `labels_[i]` access
/// would resurrect a previous search's state and must not be added. The
/// epoch counter is 64-bit: it does not wrap in any realistic process
/// lifetime. A workspace belongs to one thread; schedulers own one per
/// run and reuse it across every routed edge.
class RoutingWorkspace {
 public:
  RoutingWorkspace() = default;

  /// Flushes any relaxations still batched in this workspace (one-off
  /// searches with local scratch reach the global counter this way; the
  /// engine flushes its per-run workspaces explicitly).
  ~RoutingWorkspace() { flush_relaxations(); }

  RoutingWorkspace(const RoutingWorkspace&) = delete;
  RoutingWorkspace& operator=(const RoutingWorkspace&) = delete;

  /// Batches `count` Dijkstra relaxations into this workspace — a plain
  /// member add, no atomic. `dijkstra_route_probe` accumulates here per
  /// search; the one atomic add happens in `flush_relaxations`, once per
  /// run (or at destruction), so a run routing thousands of edges
  /// touches the global registry once instead of once per search.
  void add_relaxations(std::uint64_t count) noexcept {
    relaxations_ += count;
  }

  /// Flushes the batched relaxation tally into
  /// `sched_dijkstra_relaxations_total` and zeroes it.
  void flush_relaxations() {
    if (relaxations_ > 0) {
      obs::hot_counters().dijkstra_relaxations.increment(relaxations_);
      relaxations_ = 0;
    }
  }

  /// Starts a new search over `num_nodes` nodes: sizes the arrays,
  /// bumps the epoch and clears the heap (capacity retained).
  void begin_search(std::size_t num_nodes) {
    if (labels_.size() < num_nodes) {
      labels_.resize(num_nodes);
      stamps_.resize(num_nodes, 0);
    }
    ++epoch_;
    heap_.clear();
  }

  /// The node's label for the current search, default-initialised on
  /// first touch after `begin_search`.
  [[nodiscard]] detail::DijkstraLabel& label(std::size_t node) {
    if (stamps_[node] != epoch_) {
      stamps_[node] = epoch_;
      labels_[node] = detail::DijkstraLabel{};
    }
    return labels_[node];
  }

  [[nodiscard]] std::vector<detail::DijkstraQueueEntry>& heap() noexcept {
    return heap_;
  }

 private:
  std::vector<detail::DijkstraLabel> labels_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 0;
  std::vector<detail::DijkstraQueueEntry> heap_;
  std::uint64_t relaxations_ = 0;  ///< batched counter, flushed per run
};

/// Dynamic Dijkstra over tentative edge finish times (modified routing).
///
/// The probe is called with a candidate link and the state arriving at its
/// source node and must return the basic-insertion placement on that link
/// *without committing it*. Labels are ordered by (finish, virtual_start,
/// hops) for determinism. Requires the probe to be monotone: a later
/// arrival never yields an earlier finish, which basic insertion satisfies.
///
/// Dead-end nodes — a non-target node whose single out-link leads back to
/// the node being expanded, e.g. a leaf processor under a switch — are
/// never relaxed from that node: they cannot be transit, and the search
/// pops every other node in the same order without them. Routes are
/// identical to the unpruned search; only the relaxation and probe counts
/// fall.
///
/// `workspace` lets callers amortise the label/heap allocations across
/// searches; pass nullptr for a one-off search with local scratch.
template <typename Probe>
[[nodiscard]] Route dijkstra_route_probe(const Topology& topology,
                                         NodeId from, NodeId to,
                                         double ready_time, Probe&& probe,
                                         RoutingWorkspace* workspace =
                                             nullptr) {
  throw_if(from.index() >= topology.num_nodes() ||
               to.index() >= topology.num_nodes(),
           "dijkstra_route_probe: invalid endpoint");
  if (from == to) {
    return {};
  }

  RoutingWorkspace local;
  RoutingWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.begin_search(topology.num_nodes());

  // Relaxation tally, batched into the workspace however the search ends
  // (per-relaxation cost stays a plain increment; the workspace flushes
  // one atomic add per run — or at destruction for one-off local scratch
  // — instead of one per search).
  struct RelaxationTally {
    RoutingWorkspace& sink;
    std::uint64_t count = 0;
    ~RelaxationTally() { sink.add_relaxations(count); }
  } relaxations{ws};

  using detail::DijkstraQueueEntry;
  std::vector<DijkstraQueueEntry>& frontier = ws.heap();
  const auto heap_greater = std::greater<DijkstraQueueEntry>();
  const auto push = [&](DijkstraQueueEntry entry) {
    frontier.push_back(entry);
    std::push_heap(frontier.begin(), frontier.end(), heap_greater);
  };

  ws.label(from.index()) =
      detail::DijkstraLabel{0.0, ready_time, 0, LinkId{}, false};
  push(DijkstraQueueEntry{0.0, ready_time, 0, from});

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), heap_greater);
    const DijkstraQueueEntry entry = frontier.back();
    frontier.pop_back();
    detail::DijkstraLabel& current = ws.label(entry.node.index());
    if (current.settled || entry.finish > current.finish ||
        (entry.finish == current.finish && entry.start > current.start)) {
      continue;  // stale entry
    }
    current.settled = true;
    if (entry.node == to) {
      break;
    }
    const double current_start = current.start;
    const double current_finish = current.finish;
    const std::size_t current_hops = current.hops;
    for (LinkId l : topology.out_links(entry.node)) {
      const NodeId next = topology.link(l).dst;
      detail::DijkstraLabel& next_label = ws.label(next.index());
      if (next_label.settled) {
        continue;
      }
      // Dead end: a non-target node whose only out-link leads back here
      // can only bounce traffic into this now-settled node, so its label
      // would never feed another node. Skipping it leaves the pop order
      // of every other node, and so the route, unchanged.
      if (next != to) {
        const std::vector<LinkId>& next_out = topology.out_links(next);
        if (next_out.size() == 1 &&
            topology.link(next_out.front()).dst == entry.node) {
          continue;
        }
      }
      ++relaxations.count;
      const ProbeResult result =
          probe(l, ProbeState{current_start, current_finish});
      // Lexicographic relaxation (finish, start, hops): on an idle
      // cut-through network every path yields the same finish, so hop
      // count must break ties or routes balloon.
      const bool better =
          result.finish < next_label.finish ||
          (result.finish == next_label.finish &&
           (result.virtual_start < next_label.start ||
            (result.virtual_start == next_label.start &&
             current_hops + 1 < next_label.hops)));
      if (better) {
        next_label.finish = result.finish;
        next_label.start = result.virtual_start;
        next_label.hops = current_hops + 1;
        next_label.parent = l;
        push(DijkstraQueueEntry{result.finish, result.virtual_start,
                                next_label.hops, next});
      }
    }
  }

  throw_if(!ws.label(to.index()).parent.valid(),
           "dijkstra_route_probe: destination unreachable");
  Route route;
  NodeId at = to;
  while (at != from) {
    const LinkId hop = ws.label(at.index()).parent;
    route.push_back(hop);
    at = topology.link(hop).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

}  // namespace edgesched::net
