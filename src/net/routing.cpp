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

RouteCache::~RouteCache() {
  if (hits_ > 0) {
    obs::hot_counters().route_cache_hits.increment(hits_);
  }
  if (misses_ > 0) {
    obs::hot_counters().route_cache_misses.increment(misses_);
  }
}

const Route& RouteCache::route(NodeId from, NodeId to) {
  throw_if(from.index() >= shards_.size() ||
               to.index() >= topology_->num_nodes(),
           "RouteCache: invalid endpoint");
  Shard& shard = shards_[from.index()];
  if (shard.routes.empty()) {
    shard.routes.resize(topology_->num_nodes());
    shard.cached.assign(topology_->num_nodes(), 0);
  }
  if (shard.cached[to.index()] != 0) {
    ++hits_;
  } else {
    shard.routes[to.index()] = bfs_route(*topology_, from, to);
    shard.cached[to.index()] = 1;
    ++misses_;
  }
  return shard.routes[to.index()];
}

StaticRouteTable::StaticRouteTable(const Topology& topology) {
  shards_.resize(topology.num_nodes());
  // One BFS per processor source, identical discovery order to
  // `bfs_route` but run to exhaustion so every destination's parent is
  // assigned in one pass. Early stopping cannot change any parent that
  // was already assigned (BFS assigns each node's parent exactly once,
  // in deterministic frontier order), so the extracted routes are
  // byte-identical to per-destination `bfs_route` calls.
  const std::size_t n = topology.num_nodes();
  std::vector<LinkId> parent(n);
  std::vector<char> seen(n);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (const NodeId from : topology.processors()) {
    std::fill(seen.begin(), seen.end(), 0);
    frontier.clear();
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
    Shard& shard = shards_[from.index()];
    shard.routes.resize(n);
    shard.cached.assign(n, 0);
    shard.cached[from.index()] = 1;  // from == to: the empty route
    for (const NodeId to : topology.processors()) {
      if (to == from || seen[to.index()] == 0) {
        continue;
      }
      Route route;
      NodeId at = to;
      while (at != from) {
        const LinkId hop = parent[at.index()];
        route.push_back(hop);
        at = topology.link(hop).src;
      }
      std::reverse(route.begin(), route.end());
      shard.routes[to.index()] = std::move(route);
      shard.cached[to.index()] = 1;
    }
  }
}

const Route& StaticRouteTable::route(NodeId from, NodeId to) const {
  throw_if(from.index() >= shards_.size(), "StaticRouteTable: bad source");
  const Shard& shard = shards_[from.index()];
  throw_if(to.index() >= shard.routes.size() ||
               shard.cached[to.index()] == 0,
           "StaticRouteTable: route not materialised (processors only)");
  return shard.routes[to.index()];
}

}  // namespace edgesched::net
