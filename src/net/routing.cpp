#include "net/routing.hpp"

#include <algorithm>
#include <queue>

namespace edgesched::net {

Route bfs_route(const Topology& topology, NodeId from, NodeId to) {
  throw_if(from.index() >= topology.num_nodes() ||
               to.index() >= topology.num_nodes(),
           "bfs_route: invalid endpoint");
  if (from == to) {
    return {};
  }
  std::vector<LinkId> parent(topology.num_nodes());
  std::vector<bool> seen(topology.num_nodes(), false);
  std::queue<NodeId> frontier;
  frontier.push(from);
  seen[from.index()] = true;
  while (!frontier.empty() && !seen[to.index()]) {
    const NodeId current = frontier.front();
    frontier.pop();
    for (LinkId l : topology.out_links(current)) {
      const NodeId next = topology.link(l).dst;
      if (!seen[next.index()]) {
        seen[next.index()] = true;
        parent[next.index()] = l;
        frontier.push(next);
      }
    }
  }
  throw_if(!seen[to.index()], "bfs_route: destination unreachable");
  Route route;
  NodeId at = to;
  while (at != from) {
    const LinkId hop = parent[at.index()];
    route.push_back(hop);
    at = topology.link(hop).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

StaticRouteTable::StaticRouteTable(const Topology& topology)
    : topology_(&topology),
      shards_(std::make_unique<Shard[]>(topology.num_nodes())) {}

const Route& StaticRouteTable::route(NodeId from, NodeId to) const {
  throw_if(from.index() >= topology_->num_nodes() ||
               !topology_->is_processor(from),
           "StaticRouteTable: bad source");
  Shard& shard = shards_[from.index()];
  std::call_once(shard.once, [&] { fill(from, shard); });
  throw_if(to.index() >= shard.routes.size() ||
               shard.cached[to.index()] == 0,
           "StaticRouteTable: route not materialised (processors only)");
  return shard.routes[to.index()];
}

void StaticRouteTable::fill(NodeId from, Shard& shard) const {
  // One BFS from `from`, identical discovery order to `bfs_route` but
  // run to exhaustion so every destination's parent is assigned in one
  // pass. Early stopping cannot change any parent that was already
  // assigned (BFS assigns each node's parent exactly once, in
  // deterministic frontier order), so the extracted routes are
  // byte-identical to per-destination `bfs_route` calls.
  const Topology& topology = *topology_;
  const std::size_t n = topology.num_nodes();
  std::vector<LinkId> parent(n);
  std::vector<char> seen(n, 0);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  frontier.push_back(from);
  seen[from.index()] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId current = frontier[head];
    for (LinkId l : topology.out_links(current)) {
      const NodeId next = topology.link(l).dst;
      if (seen[next.index()] == 0) {
        seen[next.index()] = 1;
        parent[next.index()] = l;
        frontier.push_back(next);
      }
    }
  }
  shard.routes.resize(n);
  shard.cached.assign(n, 0);
  shard.cached[from.index()] = 1;  // from == to: the empty route
  for (const NodeId to : topology.processors()) {
    if (to == from || seen[to.index()] == 0) {
      continue;
    }
    Route& route = shard.routes[to.index()];
    for (NodeId at = to; at != from;) {
      const LinkId hop = parent[at.index()];
      route.push_back(hop);
      at = topology.link(hop).src;
    }
    std::reverse(route.begin(), route.end());
    shard.cached[to.index()] = 1;
  }
}

UniquePathRouter::UniquePathRouter(const Topology& topology) {
  // BFS over out-links from each unvisited node in index order. Every
  // link is some node's out-link, so each is examined exactly once: as a
  // parent -> child link that discovers the child, or as the child's
  // link back to its parent. Any other link (a second cable between a
  // pair, a one-way link, a self-loop, a cycle's closing cable or a link
  // into another component) disqualifies the fabric.
  const std::size_t n = topology.num_nodes();
  std::vector<Node> nodes(n);
  std::vector<char> seen(n, 0);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (seen[r] != 0) {
      continue;
    }
    seen[r] = 1;
    frontier.clear();
    frontier.push_back(NodeId(r));
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId u = frontier[head];
      const Node& at = nodes[u.index()];
      for (const LinkId l : topology.out_links(u)) {
        const NodeId v = topology.link(l).dst;
        if (seen[v.index()] != 0) {
          if (v != at.parent || l != at.up) {
            return;
          }
          continue;
        }
        LinkId up;
        for (const LinkId back : topology.out_links(v)) {
          if (topology.link(back).dst == u) {
            up = back;
            break;
          }
        }
        if (!up.valid()) {
          return;
        }
        seen[v.index()] = 1;
        nodes[v.index()] = Node{u, up, l, at.depth + 1};
        frontier.push_back(v);
      }
    }
  }
  nodes_ = std::move(nodes);
}

void UniquePathRouter::route(NodeId from, NodeId to, Route& route) const {
  throw_if(from.index() >= nodes_.size() || to.index() >= nodes_.size(),
           "UniquePathRouter: invalid endpoint");
  route.clear();
  // Climb the deeper end until both are level, then both together until
  // they meet; a root reached without meeting means another component.
  NodeId a = from;
  NodeId b = to;
  std::size_t up_hops = 0;
  std::size_t down_hops = 0;
  while (nodes_[a.index()].depth > nodes_[b.index()].depth) {
    a = nodes_[a.index()].parent;
    ++up_hops;
  }
  while (nodes_[b.index()].depth > nodes_[a.index()].depth) {
    b = nodes_[b.index()].parent;
    ++down_hops;
  }
  while (a != b) {
    a = nodes_[a.index()].parent;
    b = nodes_[b.index()].parent;
    throw_if(!a.valid(), "UniquePathRouter: destination unreachable");
    ++up_hops;
    ++down_hops;
  }
  // Up links from `from` fill the front, down links into `to` the back.
  route.resize(up_hops + down_hops);
  NodeId at = from;
  for (std::size_t i = 0; i < up_hops; ++i) {
    route[i] = nodes_[at.index()].up;
    at = nodes_[at.index()].parent;
  }
  at = to;
  for (std::size_t i = route.size(); i-- > up_hops;) {
    route[i] = nodes_[at.index()].down;
    at = nodes_[at.index()].parent;
  }
}

TransitAdjacency::TransitAdjacency(const Topology& topology)
    : topology_(&topology),
      hop_rows_(std::make_unique<HopRow[]>(topology.num_nodes())) {
  const std::size_t n = topology.num_nodes();
  stub_parent_.assign(n, NodeId{});
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<LinkId>& out = topology.out_links(NodeId(v));
    if (out.size() == 1) {
      stub_parent_[v] = topology.link(out.front()).dst;
    }
  }
  // Out- and in-link lists are both in link-id order, so each node's
  // transit arcs and each stub's parent links come out in that order.
  transit_begin_.reserve(n + 1);
  stub_begin_.reserve(n + 1);
  transit_.reserve(topology.num_links());
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node(v);
    transit_begin_.push_back(static_cast<std::uint32_t>(transit_.size()));
    for (const LinkId l : topology.out_links(node)) {
      const NodeId dst = topology.link(l).dst;
      if (stub_parent_[dst.index()] != node) {
        transit_.push_back(Arc{l, dst});
      }
    }
    stub_begin_.push_back(static_cast<std::uint32_t>(stub_.size()));
    if (stub_parent_[v].valid()) {
      for (const LinkId l : topology.in_links(node)) {
        if (topology.link(l).src == stub_parent_[v]) {
          stub_.push_back(Arc{l, node});
        }
      }
    }
  }
  transit_begin_.push_back(static_cast<std::uint32_t>(transit_.size()));
  stub_begin_.push_back(static_cast<std::uint32_t>(stub_.size()));
}

std::span<const std::uint32_t> TransitAdjacency::hops_to(
    NodeId target) const {
  throw_if(target.index() >= topology_->num_nodes(),
           "TransitAdjacency: invalid target");
  HopRow& row = hop_rows_[target.index()];
  std::call_once(row.once, [&] {
    // Reverse BFS from the target over every in-link.
    const Topology& topology = *topology_;
    std::vector<std::uint32_t>& hops = row.hops;
    hops.assign(topology.num_nodes(), kUnreachable);
    std::vector<NodeId> frontier;
    frontier.reserve(topology.num_nodes());
    frontier.push_back(target);
    hops[target.index()] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const NodeId at = frontier[head];
      for (const LinkId l : topology.in_links(at)) {
        const NodeId src = topology.link(l).src;
        if (hops[src.index()] == kUnreachable) {
          hops[src.index()] = hops[at.index()] + 1;
          frontier.push_back(src);
        }
      }
    }
  });
  return row.hops;
}

}  // namespace edgesched::net
