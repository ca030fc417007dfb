// Network topology serialization: a line-oriented text format.
//
// Text format (comments start with '#'):
//   network <name>
//   processor <id> <speed> [name]
//   switch <id> [name]
//   link <src-id> <dst-id> <speed> [domain]
// Node ids must be dense and ordered. Links are added in file order, so
// link ids round-trip. Links naming the same `domain` share one
// contention domain (half-duplex cables, buses, any shared medium) and
// must have the same speed; serialized domain ids are renumbered in
// first-seen order, and a link without one gets a domain of its own.
#pragma once

#include <iosfwd>

#include "net/topology.hpp"

namespace edgesched::net {

void write_text(std::ostream& out, const Topology& topology);

[[nodiscard]] Topology read_text(std::istream& in);

}  // namespace edgesched::net
