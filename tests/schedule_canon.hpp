// Canonical byte-exact schedule serialisation for equivalence tests.
//
// Every field of a Schedule — placements, communication kinds, routes,
// occupations, rate profiles, packet counts, arrivals — is rendered with
// doubles as raw IEEE-754 bit patterns, so two schedules produce the same
// text if and only if they are bit-identical. This is the currency of the
// golden-equivalence suite: the engine-backed algorithms must reproduce
// the pre-refactor implementations exactly, not merely to a tolerance.
#pragma once

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::test {

inline void canon_double(std::ostream& os, double value) {
  os << std::hex << std::setw(16) << std::setfill('0')
     << std::bit_cast<std::uint64_t>(value) << std::dec;
}

/// Bit-exact textual form of a schedule. Line-oriented so golden diffs
/// point at the first diverging task or edge.
inline std::string canonical_schedule(const dag::TaskGraph& graph,
                                      const sched::Schedule& schedule) {
  std::ostringstream os;
  os << "algorithm " << schedule.algorithm() << "\n";
  for (dag::TaskId t : graph.all_tasks()) {
    const sched::TaskPlacement& p = schedule.task(t);
    os << "task " << t.index() << " proc "
       << (p.placed() ? static_cast<std::int64_t>(p.processor.index())
                      : -1)
       << " start ";
    canon_double(os, p.start);
    os << " finish ";
    canon_double(os, p.finish);
    os << "\n";
  }
  for (dag::EdgeId e : graph.all_edges()) {
    const sched::Communication comm = schedule.communication(e);
    os << "edge " << e.index() << " kind "
       << static_cast<int>(comm.kind) << " arrival ";
    canon_double(os, comm.arrival);
    os << " packets " << comm.packet_count << "\n";
    os << "  route";
    for (net::LinkId l : comm.route) {
      os << ' ' << l.index();
    }
    os << "\n";
    for (const sched::LinkOccupation& occ : comm.occupations) {
      os << "  occ " << occ.link.index() << ' ';
      canon_double(os, occ.earliest_start);
      os << ' ';
      canon_double(os, occ.start);
      os << ' ';
      canon_double(os, occ.finish);
      os << "\n";
    }
    for (std::size_t h = 0; h < comm.profiles.size(); ++h) {
      os << "  profile";
      for (const timeline::RateSegment& seg : comm.profiles[h].segments()) {
        os << " [";
        canon_double(os, seg.start);
        os << ' ';
        canon_double(os, seg.end);
        os << ' ';
        canon_double(os, seg.rate);
        os << ']';
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace edgesched::test
