// Routing algorithms.
//
// * `bfs_route` — minimal routing of Sinnen's Basic Algorithm: fewest
//   hops, deterministic tie-break.
// * `dijkstra_route_probe` — the paper's *modified routing* (§4.3):
//   Dijkstra whose relaxation key is the tentative finish time of the
//   edge being routed on each link, supplied by a caller probe that
//   consults the current link timelines (basic insertion, §3). Routes
//   therefore steer around loaded links. It walks a `TransitAdjacency`,
//   never the topology's raw out-link lists.
// * `TransitAdjacency` — the search's per-platform arc lists: every
//   node's out-links minus those into its stubs (leaf nodes whose only
//   out-link leads back), plus each stub's links from its parent, which
//   the search relaxes only when that stub is the target. Built in one
//   O(N+L) pass; sched::PlatformContext owns one per topology.
// * `RoutingWorkspace` — reusable, epoch-stamped Dijkstra scratch so a
//   scheduler routing thousands of edges allocates its search state once.
// * `StaticRouteTable` — the static routing layer: `bfs_route`'s minimal
//   routes between processors, filled lazily one source at a time and
//   safe to query from any number of threads (sched::PlatformContext
//   owns one per topology).
// * `UniquePathRouter` — on a fabric with one simple path per pair (a
//   tree of duplex or half-duplex cables: stars, fat trees), that path
//   by an O(hops) walk up a rooted spanning forest. Both searches above
//   can only return it there, so the engine walks instead of searching
//   under every routing policy; cyclic fabrics keep the searches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
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

/// The arcs the modified-routing search may walk, precomputed once per
/// topology.
///
/// A *stub* is a node with exactly one out-link; the node that link
/// leads to is the stub's *parent* (a leaf processor under a switch,
/// either end of a two-node duplex). A link parent -> stub can never be
/// transit for any route not ending at that stub: the stub's only way
/// on is back into the parent, which the search has already settled when
/// it expands the parent. So each node's *transit arcs* are its
/// out-links minus those into its own stubs, and each stub keeps its
/// parent -> stub links apart, in link-id order, for the one search per
/// route that targets it. Links into a stub from any other node (a
/// one-way relay a -> s -> b) stay transit arcs of their source.
///
/// Arcs carry their destination, so the search reads no `Topology::Link`
/// while relaxing. Immutable once built and safe to share across
/// threads. Non-owning: the topology must outlive the adjacency and must
/// not gain links after it is built.
class TransitAdjacency {
 public:
  struct Arc {
    LinkId link;
    NodeId dst;
  };

  explicit TransitAdjacency(const Topology& topology);

  TransitAdjacency(const TransitAdjacency&) = delete;
  TransitAdjacency& operator=(const TransitAdjacency&) = delete;

  [[nodiscard]] const Topology& topology() const noexcept {
    return *topology_;
  }
  /// Out-links of `node` that do not lead into one of its stubs, in
  /// link-id order.
  [[nodiscard]] std::span<const Arc> transit_arcs(NodeId node) const {
    return arcs(transit_begin_, transit_, node);
  }
  /// The stub's parent, or an invalid id when `node` is not a stub.
  [[nodiscard]] NodeId stub_parent(NodeId node) const {
    return stub_parent_[node.index()];
  }
  /// The parent -> stub links of a stub, in link-id order (empty for a
  /// non-stub).
  [[nodiscard]] std::span<const Arc> stub_arcs(NodeId node) const {
    return arcs(stub_begin_, stub_, node);
  }

 private:
  static std::span<const Arc> arcs(const std::vector<std::uint32_t>& begin,
                                   const std::vector<Arc>& all,
                                   NodeId node) {
    return std::span<const Arc>(all.data() + begin[node.index()],
                                all.data() + begin[node.index() + 1]);
  }

  const Topology* topology_;
  std::vector<NodeId> stub_parent_;  ///< by node; invalid for non-stubs
  std::vector<std::uint32_t> transit_begin_;  ///< CSR offsets, N + 1
  std::vector<Arc> transit_;
  std::vector<std::uint32_t> stub_begin_;  ///< CSR offsets, N + 1
  std::vector<Arc> stub_;
};

/// Routes of a fabric with exactly one simple path between any two
/// connected nodes, found by a walk up a rooted spanning forest instead
/// of a search.
///
/// A fabric *qualifies* when its undirected link graph is a forest,
/// every link has its reverse and no two links share (src, dst): duplex
/// or half-duplex cable trees, stars, fat trees, a two-member bus. Then
/// every pair's only simple route is up from `from` to the node where
/// the two ends' root paths meet and down to `to`. Dijkstra's parent
/// chain and BFS's are both simple paths, so on such a fabric the §4.3
/// probe search and `bfs_route` return this very route, whatever the
/// link timelines hold; the engine asks `applies()` once per run and
/// walks instead of searching. On any other fabric the router keeps
/// nothing and `applies()` is false.
///
/// Built in one O(N+L) pass; immutable and safe to share across threads.
/// It keeps no reference to the topology, but its routes describe the
/// topology as built: one that gains links needs a new router.
class UniquePathRouter {
 public:
  explicit UniquePathRouter(const Topology& topology);

  UniquePathRouter(const UniquePathRouter&) = delete;
  UniquePathRouter& operator=(const UniquePathRouter&) = delete;

  /// True when the fabric qualifies (see the class comment).
  [[nodiscard]] bool applies() const noexcept { return !nodes_.empty(); }

  /// Clears `route` and fills it with the unique route from `from` to
  /// `to` (empty when `from == to`), reusing its capacity: O(hops), no
  /// allocation once the buffer is warm. Requires `applies()`. Throws
  /// std::invalid_argument for an endpoint outside the topology or when
  /// the ends lie in different components (destination unreachable).
  void route(NodeId from, NodeId to, Route& route) const;

 private:
  struct Node {
    NodeId parent;       ///< invalid at a component's root
    LinkId up;           ///< node -> parent
    LinkId down;         ///< parent -> node
    std::uint32_t depth = 0;
  };
  std::vector<Node> nodes_;  ///< by node; empty unless the fabric qualifies
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

  /// Flushes any search work still batched in this workspace (one-off
  /// searches with local scratch reach the global counters this way;
  /// the engine flushes its per-run workspaces explicitly).
  ~RoutingWorkspace() { flush_search_work(); }

  RoutingWorkspace(const RoutingWorkspace&) = delete;
  RoutingWorkspace& operator=(const RoutingWorkspace&) = delete;

  /// Batches one search's work into this workspace — plain member adds,
  /// no atomic: `relaxations` probes and `links_scanned` arcs walked
  /// (settled skips included). `dijkstra_route_probe` accumulates here
  /// per search; the atomic adds happen in `flush_search_work`, once per
  /// run (or at destruction), so a run routing thousands of edges
  /// touches the global registry once instead of once per search.
  void add_search_work(std::uint64_t relaxations,
                       std::uint64_t links_scanned) noexcept {
    relaxations_ += relaxations;
    links_scanned_ += links_scanned;
  }

  /// Flushes the batched tallies into `sched_dijkstra_relaxations_total`
  /// and `sched_dijkstra_links_scanned_total` and zeroes them.
  void flush_search_work() {
    if (relaxations_ > 0 || links_scanned_ > 0) {
      obs::HotCounters& counters = obs::hot_counters();
      counters.dijkstra_relaxations.increment(relaxations_);
      counters.dijkstra_links_scanned.increment(links_scanned_);
      relaxations_ = 0;
      links_scanned_ = 0;
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
  std::uint64_t relaxations_ = 0;  ///< batched counters, flushed per run
  std::uint64_t links_scanned_ = 0;
};

/// Dynamic Dijkstra over tentative edge finish times (modified routing).
///
/// The probe is called with a candidate link and the state arriving at its
/// source node and must return the basic-insertion placement on that link
/// *without committing it*. Labels are ordered by (finish, virtual_start,
/// hops) for determinism. Requires the probe to be monotone: a later
/// arrival never yields an earlier finish, which basic insertion satisfies.
///
/// A popped node relaxes its transit arcs only; when it is the parent of
/// a stub target, it then relaxes the target's stub arcs. No other stub
/// is ever relaxed from its parent: it cannot be transit, and the search
/// pops every other node in the same order without it. Routes are
/// identical to the search over every out-link; only the relaxation and
/// probe counts fall (docs/performance.md items 12 and 15).
///
/// Clears `route` and fills it with the links from `from` to `to`
/// (empty when `from == to`), reusing its capacity. `workspace` carries
/// the label/heap scratch and the batched work counters across searches.
template <typename Probe>
void dijkstra_route_probe(const TransitAdjacency& adjacency, NodeId from,
                          NodeId to, double ready_time, Probe&& probe,
                          RoutingWorkspace& workspace, Route& route) {
  const Topology& topology = adjacency.topology();
  throw_if(from.index() >= topology.num_nodes() ||
               to.index() >= topology.num_nodes(),
           "dijkstra_route_probe: invalid endpoint");
  route.clear();
  if (from == to) {
    return;
  }

  workspace.begin_search(topology.num_nodes());

  // Work tally, batched into the workspace however the search ends
  // (per-relaxation cost stays a plain increment; the workspace flushes
  // one atomic add per run — or at destruction — instead of one per
  // search).
  struct WorkTally {
    RoutingWorkspace& sink;
    std::uint64_t relaxations = 0;
    std::uint64_t links_scanned = 0;
    ~WorkTally() { sink.add_search_work(relaxations, links_scanned); }
  } work{workspace};

  using detail::DijkstraQueueEntry;
  std::vector<DijkstraQueueEntry>& frontier = workspace.heap();
  const auto heap_greater = std::greater<DijkstraQueueEntry>();
  const auto push = [&](DijkstraQueueEntry entry) {
    frontier.push_back(entry);
    std::push_heap(frontier.begin(), frontier.end(), heap_greater);
  };

  workspace.label(from.index()) =
      detail::DijkstraLabel{0.0, ready_time, 0, LinkId{}, false};
  push(DijkstraQueueEntry{0.0, ready_time, 0, from});
  // Invalid unless the target is a stub: then its parent, whose
  // expansion also relaxes the target's stub arcs.
  const NodeId target_parent = adjacency.stub_parent(to);

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), heap_greater);
    const DijkstraQueueEntry entry = frontier.back();
    frontier.pop_back();
    detail::DijkstraLabel& current = workspace.label(entry.node.index());
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
    const auto relax = [&](const TransitAdjacency::Arc& arc) {
      ++work.links_scanned;
      detail::DijkstraLabel& next_label = workspace.label(arc.dst.index());
      if (next_label.settled) {
        return;
      }
      ++work.relaxations;
      const ProbeResult result =
          probe(arc.link, ProbeState{current_start, current_finish});
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
        next_label.parent = arc.link;
        push(DijkstraQueueEntry{result.finish, result.virtual_start,
                                next_label.hops, arc.dst});
      }
    };
    for (const TransitAdjacency::Arc& arc :
         adjacency.transit_arcs(entry.node)) {
      relax(arc);
    }
    // Only the target's stub arcs are ever relaxed, after the transit
    // arcs: they set only the target's label, in their own link order,
    // so the pop sequence is that of a search in plain out-link order.
    if (entry.node == target_parent) {
      for (const TransitAdjacency::Arc& arc : adjacency.stub_arcs(to)) {
        relax(arc);
      }
    }
  }

  const detail::DijkstraLabel& target = workspace.label(to.index());
  throw_if(!target.parent.valid(),
           "dijkstra_route_probe: destination unreachable");
  // A label's hop count is its parent chain's length: fill back to front.
  route.resize(target.hops);
  NodeId at = to;
  for (std::size_t i = route.size(); i-- > 0;) {
    const LinkId hop = workspace.label(at.index()).parent;
    route[i] = hop;
    at = topology.link(hop).src;
  }
}

}  // namespace edgesched::net
