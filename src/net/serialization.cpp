#include "net/serialization.hpp"

#include <charconv>
#include <iterator>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace edgesched::net {

void write_text(std::ostream& out, const Topology& topology) {
  // Speeds use the shortest spelling that reads back as the same double,
  // so a written fabric keeps its fingerprint.
  const auto number = [&out](double value) -> std::ostream& {
    char buffer[32];
    const char* end = std::to_chars(buffer, std::end(buffer), value).ptr;
    return out.write(buffer, end - buffer);
  };
  out << "network "
      << (topology.name().empty() ? "network" : topology.name()) << "\n";
  for (NodeId n : topology.all_nodes()) {
    const NetNode& node = topology.node(n);
    if (node.kind == NodeKind::kProcessor) {
      out << "processor " << n.value() << ' ';
      number(node.speed) << ' ' << node.name << "\n";
    } else {
      out << "switch " << n.value() << ' ' << node.name << "\n";
    }
  }
  for (LinkId l : topology.all_links()) {
    const Link& link = topology.link(l);
    out << "link " << link.src.value() << ' ' << link.dst.value() << ' ';
    number(link.speed) << ' ' << link.domain.value() << "\n";
  }
}

Topology read_text(std::istream& in) {
  Topology topology;
  std::string line;
  std::size_t line_number = 0;
  struct Medium {
    DomainId domain;
    double speed = 0.0;
  };
  std::unordered_map<std::uint32_t, Medium> media;  // by serialized domain

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
      std::uint32_t serialized = 0;
      if (fields >> serialized) {
        auto [it, fresh] = media.try_emplace(serialized);
        if (fresh) {
          it->second = Medium{topology.add_domain(), speed};
        }
        // One domain is one medium with one speed (the schedulers assume
        // it; BBSA asserts it).
        throw_if(it->second.speed != speed,
                 "read_text: links of one domain must share a speed" + where);
        topology.add_link(NodeId(src), NodeId(dst), speed, it->second.domain);
      } else {
        topology.add_link(NodeId(src), NodeId(dst), speed);
      }
    } else {
      throw_if(true, "read_text: unknown keyword '" + keyword + "'" + where);
    }
  }
  return topology;
}

}  // namespace edgesched::net
