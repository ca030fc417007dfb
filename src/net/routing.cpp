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

TransitAdjacency::TransitAdjacency(const Topology& topology)
    : topology_(&topology) {
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

}  // namespace edgesched::net
