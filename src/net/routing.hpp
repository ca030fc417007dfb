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
// * `goal_directed_route_probe` — the same search, with the same routes
//   and target labels, for a probe that never returns a label below its
//   input's (BBSA's bandwidth probe, §5): ties on (finish, start) pop in
//   order of hops plus a hop-distance bound to the target, so the search
//   settles fewer nodes. An equal label keeps the predecessor plain
//   Dijkstra would have popped first (the canonical parent rule).
// * `TransitAdjacency` — the search's per-platform arc lists: every
//   node's out-links minus those into its stubs (leaf nodes whose only
//   out-link leads back), plus each stub's links from its parent, which
//   the search relaxes only when that stub is the target. Built in one
//   O(N+L) pass; sched::PlatformContext owns one per topology. It also
//   keeps the goal-directed search's hop-distance rows, one per target,
//   each filled on the first search to that target.
// * `RoutingWorkspace` — reusable, epoch-stamped search scratch: labels
//   with their stamps and heap slots inline, and an indexed binary heap
//   holding at most one entry per node, so a scheduler routing thousands
//   of edges allocates its search state once.
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
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
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
/// while relaxing. The arc lists are immutable once built; the hop rows
/// of `hops_to` fill once per target under their own `std::once_flag`,
/// as `StaticRouteTable`'s shards do, so the adjacency is safe to share
/// across threads. Non-owning: the topology must outlive the adjacency
/// and must not gain links after it is built.
class TransitAdjacency {
 public:
  struct Arc {
    LinkId link;
    NodeId dst;
  };

  /// `hops_to`'s entry for a node with no path to the target. Far above
  /// any hop count, yet a search's hops plus it still fit in 32 bits.
  static constexpr std::uint32_t kUnreachable = std::uint32_t{1} << 31;

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
  /// Each node's hop distance to `target` over every link of the
  /// topology (`kUnreachable` without a path), by node index. The search
  /// walks a subset of those links, so a node's entry never exceeds the
  /// hops of any route it can still take, and no arc u -> v has
  /// hops(u) > hops(v) + 1. The row fills on the first call for
  /// `target`, by one reverse BFS, exactly once; a fabric no
  /// goal-directed search targets allocates none.
  [[nodiscard]] std::span<const std::uint32_t> hops_to(NodeId target) const;

 private:
  struct HopRow {
    std::once_flag once;
    std::vector<std::uint32_t> hops;
  };
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
  std::unique_ptr<HopRow[]> hop_rows_;  ///< by target node index
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

/// A label's heap slot while its node is not queued, and once it is
/// settled (popped).
inline constexpr std::uint32_t kNotQueued =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr std::uint32_t kSettled = kNotQueued - 1;

/// Per-node search label, ordered by (finish, start, hops). Lives in a
/// `RoutingWorkspace` with its epoch stamp and heap slot inline, reset
/// lazily when a search first touches it.
struct DijkstraLabel {
  double finish = kInfiniteTime;
  double start = kInfiniteTime;
  std::uint64_t epoch = 0;
  std::uint32_t hops = 0;
  LinkId parent;
  std::uint32_t slot = kNotQueued;  ///< heap position, or the two above

  [[nodiscard]] bool settled() const noexcept { return slot == kSettled; }
};

/// Heap key: (finish, start, rank, node), a total order. `rank` packs
/// (hops + bound, hops) into one integer; the plain search's bound is 0,
/// so its order is (finish, start, hops, node).
struct SearchKey {
  double finish;
  double start;
  std::uint64_t rank;
  std::uint32_t node;

  [[nodiscard]] bool operator<(const SearchKey& other) const noexcept {
    if (finish != other.finish) return finish < other.finish;
    if (start != other.start) return start < other.start;
    if (rank != other.rank) return rank < other.rank;
    return node < other.node;
  }
};
}  // namespace detail

/// Reusable search scratch: label array and an indexed binary min-heap.
///
/// ## Epoch semantics
///
/// Every search calls `begin_search(n)`, which bumps the workspace epoch
/// instead of clearing the O(n) label array. `label(i)` compares the
/// node's inline stamp against the current epoch and lazily resets the
/// label on first touch, so a search over a topology with N nodes
/// initialises only the labels it actually visits. Labels read through
/// `label()` are therefore always from the *current* search; raw
/// `labels_[i]` access would resurrect a previous search's state and is
/// confined to the heap, whose nodes this search has touched. The epoch
/// counter is 64-bit: it does not wrap in any realistic process lifetime.
///
/// ## Heap
///
/// Each queued node has exactly one heap entry, whose position its label
/// keeps (`slot`): an improved label moves its entry up in place
/// (`push_or_decrease`) instead of pushing a second one, so no stale
/// entry is ever pushed or popped. Keys are a total order, so the pop
/// sequence is the one any correct min-heap gives.
///
/// A workspace belongs to one thread; schedulers own one per run and
/// reuse it across every routed edge.
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
  /// no atomic: `relaxations` probes, `links_scanned` arcs walked
  /// (settled skips included) and `pops` heap pops. The searches
  /// accumulate here per search; the atomic adds happen in
  /// `flush_search_work`, once per run (or at destruction), so a run
  /// routing thousands of edges touches the global registry once instead
  /// of once per search.
  void add_search_work(std::uint64_t relaxations, std::uint64_t links_scanned,
                       std::uint64_t pops) noexcept {
    relaxations_ += relaxations;
    links_scanned_ += links_scanned;
    pops_ += pops;
  }

  /// Flushes the batched tallies into `sched_dijkstra_relaxations_total`,
  /// `sched_dijkstra_links_scanned_total` and `sched_dijkstra_pops_total`
  /// and zeroes them.
  void flush_search_work() {
    if (relaxations_ > 0 || links_scanned_ > 0 || pops_ > 0) {
      obs::HotCounters& counters = obs::hot_counters();
      counters.dijkstra_relaxations.increment(relaxations_);
      counters.dijkstra_links_scanned.increment(links_scanned_);
      counters.dijkstra_pops.increment(pops_);
      relaxations_ = 0;
      links_scanned_ = 0;
      pops_ = 0;
    }
  }

  /// Starts a new search over `num_nodes` nodes: sizes the label array,
  /// bumps the epoch and clears the heap (capacity retained).
  void begin_search(std::size_t num_nodes) {
    if (labels_.size() < num_nodes) {
      labels_.resize(num_nodes);
    }
    ++epoch_;
    heap_.clear();
  }

  /// The node's label for the current search, default-initialised on
  /// first touch after `begin_search`.
  [[nodiscard]] detail::DijkstraLabel& label(std::size_t node) {
    detail::DijkstraLabel& entry = labels_[node];
    if (entry.epoch != epoch_) {
      entry = detail::DijkstraLabel{};
      entry.epoch = epoch_;
    }
    return entry;
  }

  [[nodiscard]] bool heap_empty() const noexcept { return heap_.empty(); }

  /// Queues `key.node`, whose label is `node_label`, or moves its entry
  /// up to `key`. Its label only ever improves while queued, so `key`
  /// is never above the entry it replaces.
  void push_or_decrease(detail::DijkstraLabel& node_label,
                        const detail::SearchKey& key) {
    std::size_t pos = node_label.slot;
    if (pos == detail::kNotQueued) {
      pos = heap_.size();
      heap_.push_back(key);
    }
    sift_up(pos, key);
  }

  /// Removes the least key from the heap and marks its node settled.
  detail::SearchKey pop_min() {
    const detail::SearchKey top = heap_.front();
    const detail::SearchKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      sift_down(last);
    }
    labels_[top.node].slot = detail::kSettled;
    return top;
  }

 private:
  void place(std::size_t pos, const detail::SearchKey& key) {
    heap_[pos] = key;
    labels_[key.node].slot = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos, const detail::SearchKey& key) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!(key < heap_[parent])) {
        break;
      }
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, key);
  }

  /// Re-seats `key` from the root down.
  void sift_down(const detail::SearchKey& key) {
    const std::size_t size = heap_.size();
    std::size_t pos = 0;
    for (std::size_t child = 1; child < size; child = 2 * pos + 1) {
      if (child + 1 < size && heap_[child + 1] < heap_[child]) {
        ++child;
      }
      if (!(heap_[child] < key)) {
        break;
      }
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, key);
  }

  std::vector<detail::DijkstraLabel> labels_;
  std::uint64_t epoch_ = 0;
  std::vector<detail::SearchKey> heap_;
  std::uint64_t relaxations_ = 0;  ///< batched counters, flushed per run
  std::uint64_t links_scanned_ = 0;
  std::uint64_t pops_ = 0;
};

namespace detail {

/// The search behind both entries below. `kGoalDirected` adds the hop
/// bound to the pop key and the canonical parent rule; the label order
/// and the relaxation are the same in both.
template <bool kGoalDirected, typename Probe>
void route_search(const TransitAdjacency& adjacency, NodeId from, NodeId to,
                  double ready_time, Probe&& probe,
                  RoutingWorkspace& workspace, Route& route) {
  const Topology& topology = adjacency.topology();
  throw_if(from.index() >= topology.num_nodes() ||
               to.index() >= topology.num_nodes(),
           "dijkstra_route_probe: invalid endpoint");
  route.clear();
  if (from == to) {
    return;
  }

  std::span<const std::uint32_t> hops_left;
  if constexpr (kGoalDirected) {
    hops_left = adjacency.hops_to(to);
  }
  // (hops + bound) << 32 | hops: the bound is at most kUnreachable and
  // hops stay below the node count, so neither half overflows.
  const auto rank = [&](std::uint32_t hops, NodeId node) {
    std::uint64_t bound = hops;
    if constexpr (kGoalDirected) {
      bound += hops_left[node.index()];
    }
    return bound << 32 | hops;
  };

  workspace.begin_search(topology.num_nodes());

  // Work tally, batched into the workspace however the search ends
  // (per-relaxation cost stays a plain increment; the workspace flushes
  // one atomic add per run — or at destruction — instead of one per
  // search).
  struct WorkTally {
    RoutingWorkspace& sink;
    std::uint64_t relaxations = 0;
    std::uint64_t links_scanned = 0;
    std::uint64_t pops = 0;
    ~WorkTally() { sink.add_search_work(relaxations, links_scanned, pops); }
  } work{workspace};

  DijkstraLabel& source = workspace.label(from.index());
  source.finish = 0.0;
  source.start = ready_time;
  workspace.push_or_decrease(
      source, SearchKey{0.0, ready_time, rank(0, from), from.value()});
  // Invalid unless the target is a stub: then its parent, whose
  // expansion also relaxes the target's stub arcs.
  const NodeId target_parent = adjacency.stub_parent(to);

  while (!workspace.heap_empty()) {
    const NodeId node(workspace.pop_min().node);
    ++work.pops;
    if (node == to) {
      break;
    }
    const DijkstraLabel& current = workspace.label(node.index());
    const double current_start = current.start;
    const double current_finish = current.finish;
    const std::uint32_t next_hops = current.hops + 1;
    const auto relax = [&](const TransitAdjacency::Arc& arc) {
      ++work.links_scanned;
      DijkstraLabel& next_label = workspace.label(arc.dst.index());
      if (next_label.settled()) {
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
             next_hops < next_label.hops)));
      if (better) {
        next_label.finish = result.finish;
        next_label.start = result.virtual_start;
        next_label.hops = next_hops;
        next_label.parent = arc.link;
        workspace.push_or_decrease(
            next_label, SearchKey{result.finish, result.virtual_start,
                                  rank(next_hops, arc.dst), arc.dst.value()});
      } else if constexpr (kGoalDirected) {
        // Canonical parent rule. Plain Dijkstra keeps the first
        // predecessor to reach a label, and pops predecessors of equal
        // hops in (finish, start, node) order, arcs in link order. The
        // bound reorders those pops, so an equal label takes the
        // predecessor that is smaller in that order.
        if (result.finish == next_label.finish &&
            result.virtual_start == next_label.start &&
            next_hops == next_label.hops) {
          const NodeId kept = topology.link(next_label.parent).src;
          const DijkstraLabel& kept_label = workspace.label(kept.index());
          if (std::tie(current_finish, current_start, node, arc.link) <
              std::tie(kept_label.finish, kept_label.start, kept,
                       next_label.parent)) {
            next_label.parent = arc.link;
          }
        }
      }
    };
    for (const TransitAdjacency::Arc& arc : adjacency.transit_arcs(node)) {
      relax(arc);
    }
    // Only the target's stub arcs are ever relaxed, after the transit
    // arcs: they set only the target's label, in their own link order,
    // so the pop sequence is that of a search in plain out-link order.
    if (node == target_parent) {
      for (const TransitAdjacency::Arc& arc : adjacency.stub_arcs(to)) {
        relax(arc);
      }
    }
  }

  const DijkstraLabel& target = workspace.label(to.index());
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

}  // namespace detail

/// Dynamic Dijkstra over tentative edge finish times (modified routing).
///
/// The probe is called with a candidate link and the state arriving at its
/// source node and must return the basic-insertion placement on that link
/// *without committing it*. Labels are ordered by (finish, virtual_start,
/// hops) and popped in (finish, virtual_start, hops, node) order. Nothing
/// is assumed of the probe: the exclusive basic-insertion probe's
/// `(t_f_min - d) + d` can come out one ulp below `t_f_min`, so a child's
/// label can sit below its parent's, and this exact pop order is what
/// fixes its routes (`goal_directed_route_probe` is only for probes that
/// never do that).
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
  detail::route_search<false>(adjacency, from, to, ready_time,
                              std::forward<Probe>(probe), workspace, route);
}

/// `dijkstra_route_probe`'s route and target label, found by settling
/// fewer nodes, for a probe that is monotone along an arc: its finish is
/// never below `min_finish` and its `virtual_start` never below
/// `earliest_start` (BBSA's bandwidth probe: `max(finish, t_f_min)` and a
/// first flow no earlier than the arrival).
///
/// The pop key becomes (finish, start, hops + d(node), hops, node), with
/// `d` the hop distance to `to` from `adjacency.hops_to`. Since `d` never
/// drops by more than one per arc, a probe as above makes every child's
/// key exceed its parent's, so each popped label is final and equals the
/// one plain Dijkstra settles. Every predecessor that reaches a node's
/// label pops before the node, and on an equal label the node keeps the
/// predecessor smaller in (finish, start, node id, link id): the one
/// Dijkstra pops first. So the routes are the same. The first search to a
/// target fills its hop row.
template <typename Probe>
void goal_directed_route_probe(const TransitAdjacency& adjacency,
                               NodeId from, NodeId to, double ready_time,
                               Probe&& probe, RoutingWorkspace& workspace,
                               Route& route) {
  detail::route_search<true>(adjacency, from, to, ready_time,
                             std::forward<Probe>(probe), workspace, route);
}

}  // namespace edgesched::net
