#include "net/serialization.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

namespace edgesched::net {

void write_dot(std::ostream& out, const Topology& topology) {
  out << "digraph \""
      << (topology.name().empty() ? "network" : topology.name()) << "\" {\n";
  for (NodeId n : topology.all_nodes()) {
    const NetNode& node = topology.node(n);
    out << "  n" << n.value() << " [label=\"" << node.name;
    if (node.kind == NodeKind::kProcessor) {
      out << "\\ns=" << node.speed << "\" shape=box";
    } else {
      out << "\" shape=circle";
    }
    out << "];\n";
  }
  for (LinkId l : topology.all_links()) {
    const Link& link = topology.link(l);
    out << "  n" << link.src.value() << " -> n" << link.dst.value()
        << " [label=\"" << link.speed << "\"];\n";
  }
  out << "}\n";
}

void write_text(std::ostream& out, const Topology& topology) {
  out << "network "
      << (topology.name().empty() ? "network" : topology.name()) << "\n";
  for (NodeId n : topology.all_nodes()) {
    const NetNode& node = topology.node(n);
    if (node.kind == NodeKind::kProcessor) {
      out << "processor " << n.value() << ' ' << node.speed << ' '
          << node.name << "\n";
    } else {
      out << "switch " << n.value() << ' ' << node.name << "\n";
    }
  }
  for (LinkId l : topology.all_links()) {
    const Link& link = topology.link(l);
    out << "link " << link.src.value() << ' ' << link.dst.value() << ' '
        << link.speed << ' ' << link.domain.value() << "\n";
  }
}

Topology read_text(std::istream& in) {
  Topology topology;
  std::string line;
  std::size_t line_number = 0;
  struct ParsedLink {
    NodeId src;
    NodeId dst;
    double speed;
    bool has_domain;
    std::uint32_t domain;
  };
  std::vector<ParsedLink> parsed_links;

  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    const std::string where = " at line " + std::to_string(line_number);
    if (keyword == "network") {
      std::string name;
      fields >> name;
      topology.set_name(name);
    } else if (keyword == "processor") {
      std::uint32_t id = 0;
      double speed = 0.0;
      std::string name;
      fields >> id >> speed;
      throw_if(fields.fail(), "read_text: malformed processor line" + where);
      fields >> name;
      const NodeId assigned = topology.add_processor(speed, name);
      throw_if(assigned.value() != id,
               "read_text: node ids must be dense and ordered" + where);
    } else if (keyword == "switch") {
      std::uint32_t id = 0;
      std::string name;
      fields >> id;
      throw_if(fields.fail(), "read_text: malformed switch line" + where);
      fields >> name;
      const NodeId assigned = topology.add_switch(name);
      throw_if(assigned.value() != id,
               "read_text: node ids must be dense and ordered" + where);
    } else if (keyword == "link") {
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      double speed = 0.0;
      fields >> src >> dst >> speed;
      throw_if(fields.fail(), "read_text: malformed link line" + where);
      std::uint32_t domain = 0;
      const bool has_domain = static_cast<bool>(fields >> domain);
      parsed_links.push_back(ParsedLink{NodeId(src), NodeId(dst), speed,
                                        has_domain, domain});
    } else {
      throw_if(true, "read_text: unknown keyword '" + keyword + "'" + where);
    }
  }

  // Group links by serialized domain. Links sharing a serialized domain id
  // are re-created as half-duplex pairs / bus members via the low-level
  // sharing call; a simple approach suffices: the first link of a domain
  // allocates a fresh link (and thus a fresh domain) and later links with
  // the same serialized domain would need Topology surgery — instead we
  // re-create sharing exactly for the half-duplex pair pattern and fall
  // back to independent domains otherwise.
  std::map<std::uint32_t, std::vector<ParsedLink>> by_domain;
  std::vector<ParsedLink> independent;
  for (const ParsedLink& pl : parsed_links) {
    if (pl.has_domain) {
      by_domain[pl.domain].push_back(pl);
    } else {
      independent.push_back(pl);
    }
  }
  for (const auto& [domain, group] : by_domain) {
    if (group.size() == 2 && group[0].src == group[1].dst &&
        group[0].dst == group[1].src && group[0].speed == group[1].speed) {
      topology.add_half_duplex_link(group[0].src, group[0].dst,
                                    group[0].speed);
    } else if (group.size() > 2) {
      // Bus: reconstruct the member set from the link endpoints.
      std::vector<NodeId> members;
      for (const ParsedLink& pl : group) {
        if (std::find(members.begin(), members.end(), pl.src) ==
            members.end()) {
          members.push_back(pl.src);
        }
        if (std::find(members.begin(), members.end(), pl.dst) ==
            members.end()) {
          members.push_back(pl.dst);
        }
      }
      topology.add_bus(members, group.front().speed);
    } else {
      for (const ParsedLink& pl : group) {
        topology.add_link(pl.src, pl.dst, pl.speed);
      }
    }
  }
  for (const ParsedLink& pl : independent) {
    topology.add_link(pl.src, pl.dst, pl.speed);
  }
  return topology;
}

}  // namespace edgesched::net
