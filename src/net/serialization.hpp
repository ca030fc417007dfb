// Network topology serialization: GraphViz DOT export and a line-oriented
// text format.
//
// Text format (comments start with '#'):
//   network <name>
//   processor <id> <speed> [name]
//   switch <id> [name]
//   link <src-id> <dst-id> <speed> [domain]
// Node ids must be dense and ordered; `domain` lets half-duplex/bus
// structures round-trip (omitted links get a fresh domain).
#pragma once

#include <iosfwd>

#include "net/topology.hpp"

namespace edgesched::net {

void write_dot(std::ostream& out, const Topology& topology);

void write_text(std::ostream& out, const Topology& topology);

[[nodiscard]] Topology read_text(std::istream& in);

}  // namespace edgesched::net
