#include "net/topology.hpp"

#include <cmath>
#include <queue>

#include "util/hash.hpp"

namespace edgesched::net {

NodeId Topology::add_node(NodeKind kind, double speed, std::string name) {
  NodeId id(nodes_.size());
  if (name.empty()) {
    name = (kind == NodeKind::kProcessor ? "P" : "S") +
           std::to_string(id.value());
  }
  nodes_.push_back(NetNode{std::move(name), kind, speed, {}, {}});
  if (kind == NodeKind::kProcessor) {
    processors_.push_back(id);
  }
  return id;
}

NodeId Topology::add_processor(double speed, std::string name) {
  throw_if(!(speed > 0.0 && std::isfinite(speed)),
           "Topology::add_processor: speed must be positive");
  return add_node(NodeKind::kProcessor, speed, std::move(name));
}

NodeId Topology::add_switch(std::string name) {
  return add_node(NodeKind::kSwitch, 0.0, std::move(name));
}

LinkId Topology::add_link_in_domain(NodeId src, NodeId dst, double speed,
                                    DomainId domain) {
  throw_if(!src.valid() || src.index() >= nodes_.size(),
           "Topology::add_link: invalid source node");
  throw_if(!dst.valid() || dst.index() >= nodes_.size(),
           "Topology::add_link: invalid destination node");
  throw_if(src == dst, "Topology::add_link: self loop");
  throw_if(!(speed > 0.0 && std::isfinite(speed)),
           "Topology::add_link: speed must be positive");
  LinkId id(links_.size());
  links_.push_back(Link{src, dst, speed, domain});
  nodes_[src.index()].out_links.push_back(id);
  nodes_[dst.index()].in_links.push_back(id);
  return id;
}

LinkId Topology::add_link(NodeId src, NodeId dst, double speed) {
  return add_link_in_domain(src, dst, speed, new_domain());
}

LinkId Topology::add_link(NodeId src, NodeId dst, double speed,
                          DomainId domain) {
  throw_if(!domain.valid() || domain.index() >= num_domains_,
           "Topology::add_link: unknown contention domain");
  return add_link_in_domain(src, dst, speed, domain);
}

std::pair<LinkId, LinkId> Topology::add_duplex_link(NodeId a, NodeId b,
                                                    double speed) {
  return {add_link(a, b, speed), add_link(b, a, speed)};
}

DomainId Topology::add_bus(const std::vector<NodeId>& members, double speed) {
  throw_if(members.size() < 2, "Topology::add_bus: need at least 2 members");
  const DomainId domain = new_domain();
  for (NodeId a : members) {
    for (NodeId b : members) {
      if (a != b) {
        add_link_in_domain(a, b, speed, domain);
      }
    }
  }
  return domain;
}

double Topology::processor_speed(NodeId id) const {
  const NetNode& n = node(id);
  throw_if(n.kind != NodeKind::kProcessor,
           "Topology::processor_speed: node is not a processor");
  return n.speed;
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> result;
  result.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    result.emplace_back(i);
  }
  return result;
}

std::vector<LinkId> Topology::all_links() const {
  std::vector<LinkId> result;
  result.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    result.emplace_back(i);
  }
  return result;
}

double Topology::mean_link_speed() const {
  if (links_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const Link& link : links_) {
    sum += link.speed;
  }
  return sum / static_cast<double>(links_.size());
}

bool Topology::processors_connected() const {
  if (processors_.size() < 2) {
    return true;
  }
  // Every processor reaches the first and the first reaches every
  // processor, so any two reach each other through it: one sweep over
  // out-links and one over in-links.
  for (const bool forward : {true, false}) {
    std::vector<bool> seen(nodes_.size(), false);
    std::queue<NodeId> frontier;
    frontier.push(processors_.front());
    seen[processors_.front().index()] = true;
    while (!frontier.empty()) {
      const NodeId current = frontier.front();
      frontier.pop();
      for (LinkId l : forward ? out_links(current) : in_links(current)) {
        const NodeId next = forward ? link(l).dst : link(l).src;
        if (!seen[next.index()]) {
          seen[next.index()] = true;
          frontier.push(next);
        }
      }
    }
    for (NodeId p : processors_) {
      if (!seen[p.index()]) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t Topology::fingerprint() const noexcept {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(nodes_.size()));
  for (const NetNode& n : nodes_) {
    fp.mix(static_cast<std::uint64_t>(n.kind));
    fp.mix(n.speed);
  }
  fp.mix(static_cast<std::uint64_t>(links_.size()));
  for (const Link& l : links_) {
    fp.mix(static_cast<std::uint64_t>(l.src.value()));
    fp.mix(static_cast<std::uint64_t>(l.dst.value()));
    fp.mix(l.speed);
    fp.mix(static_cast<std::uint64_t>(l.domain.value()));
  }
  return fp.value();
}

void Topology::validate_route(std::span<const LinkId> route, NodeId from,
                              NodeId to) const {
  if (from == to) {
    throw_if(!route.empty(),
             "validate_route: route between identical nodes must be empty");
    return;
  }
  throw_if(route.empty(), "validate_route: empty route between distinct "
                          "nodes");
  NodeId at = from;
  for (LinkId l : route) {
    throw_if(l.index() >= links_.size(), "validate_route: unknown link");
    const Link& hop = link(l);
    throw_if(hop.src != at, "validate_route: discontinuous route");
    at = hop.dst;
  }
  throw_if(at != to, "validate_route: route does not end at destination");
}

}  // namespace edgesched::net
