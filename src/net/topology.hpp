// Network topology graph TG = (N, P, D, H) of the paper (§2.2).
//
// N: nodes — processors and switches. P ⊆ N: the processors tasks can run
// on. D: directed communication links, each with a transfer speed s(L).
// H: hyperedges — shared media (buses, half-duplex cables) whose member
// links contend for the same physical resource.
//
// Contention is expressed through *contention domains*: every link belongs
// to exactly one domain; ordinary full-duplex links own a private domain,
// while all member links of a hyperedge (and both directions of a
// half-duplex cable) share one. Schedulers keep one timeline per domain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace edgesched::net {

struct NodeTag {};
struct LinkTag {};
struct DomainTag {};

/// Identifier of a network node (processor or switch).
using NodeId = StrongId<NodeTag>;
/// Identifier of a directed communication link.
using LinkId = StrongId<LinkTag>;
/// Identifier of a contention domain (one schedulable resource).
using DomainId = StrongId<DomainTag>;

enum class NodeKind { kProcessor, kSwitch };

/// A network node. `speed` is the processing speed s(P) and is meaningful
/// only for processors (switches never execute tasks).
struct NetNode {
  std::string name;
  NodeKind kind = NodeKind::kSwitch;
  double speed = 1.0;
  std::vector<LinkId> out_links;
  std::vector<LinkId> in_links;
};

/// A directed communication link with transfer speed s(L).
struct Link {
  NodeId src;
  NodeId dst;
  double speed = 1.0;
  DomainId domain;  ///< contention domain the link occupies
};

/// A route through the network: consecutive links, each starting where the
/// previous one ended.
using Route = std::vector<LinkId>;

/// Mutable network topology. Append-only, like TaskGraph.
class Topology {
 public:
  Topology() = default;
  explicit Topology(std::string name) : name_(std::move(name)) {}

  /// Adds a processor with finite processing speed s(P) > 0.
  NodeId add_processor(double speed = 1.0, std::string name = {});
  /// Adds a switch (routing-only node).
  NodeId add_switch(std::string name = {});

  /// Adds one directed link src -> dst with its own contention domain.
  /// Every link builder requires a finite speed s(L) > 0.
  LinkId add_link(NodeId src, NodeId dst, double speed = 1.0);

  /// Allocates an empty contention domain. Together with the
  /// domain-taking `add_link` overload this lets a rebuild (e.g. the
  /// executor's surviving-topology construction after a permanent
  /// failure) reproduce an arbitrary domain structure — half-duplex
  /// cables and buses keep sharing one domain even when some of their
  /// member links did not survive.
  DomainId add_domain() noexcept { return new_domain(); }

  /// Adds a link inside an existing contention domain (a member of a
  /// shared medium). The domain must have been allocated by this
  /// topology (`add_domain` or any link/bus builder). One domain is one
  /// medium: the schedulers assume every link in it has the same speed,
  /// and BBSA rejects a domain whose links disagree.
  LinkId add_link(NodeId src, NodeId dst, double speed, DomainId domain);

  /// Adds a full-duplex cable: two directed links in independent domains.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b,
                                            double speed = 1.0);

  /// Adds a bus (hyperedge of the paper's H set): a directed link between
  /// every ordered pair of `members`, all sharing a single contention
  /// domain. Returns the shared domain. A two-member bus is a half-duplex
  /// cable: links a -> b and b -> a in one domain.
  DomainId add_bus(const std::vector<NodeId>& members, double speed = 1.0);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t num_links() const noexcept {
    return links_.size();
  }
  [[nodiscard]] std::size_t num_domains() const noexcept {
    return num_domains_;
  }
  [[nodiscard]] std::size_t num_processors() const noexcept {
    return processors_.size();
  }

  [[nodiscard]] const NetNode& node(NodeId id) const {
    EDGESCHED_ASSERT(id.index() < nodes_.size());
    return nodes_[id.index()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    EDGESCHED_ASSERT(id.index() < links_.size());
    return links_[id.index()];
  }

  [[nodiscard]] bool is_processor(NodeId id) const {
    return node(id).kind == NodeKind::kProcessor;
  }
  /// Processing speed s(P); only valid for processors.
  [[nodiscard]] double processor_speed(NodeId id) const;
  /// Transfer speed s(L).
  [[nodiscard]] double link_speed(LinkId id) const { return link(id).speed; }
  [[nodiscard]] DomainId domain(LinkId id) const { return link(id).domain; }

  /// All processors, in insertion order.
  [[nodiscard]] const std::vector<NodeId>& processors() const noexcept {
    return processors_;
  }
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId id) const {
    return node(id).out_links;
  }
  [[nodiscard]] const std::vector<LinkId>& in_links(NodeId id) const {
    return node(id).in_links;
  }
  [[nodiscard]] std::vector<NodeId> all_nodes() const;
  [[nodiscard]] std::vector<LinkId> all_links() const;

  /// MLS of the paper: the mean transfer speed over all links.
  [[nodiscard]] double mean_link_speed() const;

  /// True iff every processor can reach every other processor.
  [[nodiscard]] bool processors_connected() const;

  /// Checks a route: non-empty links, consecutive, from -> to. Throws
  /// std::invalid_argument when broken.
  void validate_route(std::span<const LinkId> route, NodeId from,
                      NodeId to) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Canonical 64-bit structural hash over everything a scheduler sees:
  /// node count, each node's kind and speed in insertion order, and every
  /// link (src, dst, speed, contention domain) in insertion order. Node
  /// and topology *names* are excluded — relabelled topologies schedule
  /// identically and share a fingerprint. Deterministic across platforms;
  /// used as the content-address key of svc::ScheduleCache.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  NodeId add_node(NodeKind kind, double speed, std::string name);
  DomainId new_domain() noexcept { return DomainId(num_domains_++); }
  LinkId add_link_in_domain(NodeId src, NodeId dst, double speed,
                            DomainId domain);

  std::string name_;
  std::vector<NetNode> nodes_;
  std::vector<Link> links_;
  std::vector<NodeId> processors_;
  std::size_t num_domains_ = 0;
};

}  // namespace edgesched::net
