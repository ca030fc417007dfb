#include "sched/validator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "net/routing.hpp"

namespace edgesched::sched {
namespace {

/// An owning communication the tests edit before writing it.
struct OwnedComm {
  Communication::Kind kind = Communication::Kind::kLocal;
  net::Route route;
  std::vector<LinkOccupation> occupations;
  std::vector<timeline::RateProfile> profiles;
  std::size_t packet_count = 0;
  double arrival = 0.0;
};

OwnedComm own(const Communication& view) {
  OwnedComm comm{view.kind,
                 net::Route(view.route.begin(), view.route.end()),
                 std::vector<LinkOccupation>(view.occupations.begin(),
                                             view.occupations.end()),
                 {},
                 view.packet_count,
                 view.arrival};
  for (std::size_t h = 0; h < view.profiles.size(); ++h) {
    timeline::RateProfile& profile = comm.profiles.emplace_back();
    for (const timeline::RateSegment& seg : view.profiles[h].segments()) {
      profile.append(seg.start, seg.end, seg.rate);
    }
  }
  return comm;
}

void write(Schedule& s, dag::EdgeId edge, const OwnedComm& comm) {
  s.set_communication(edge, comm.kind, comm.arrival, comm.route,
                      comm.occupations, comm.packet_count, comm.profiles);
}

/// Two processors joined through one switch; chain graph a -> b, cost 4.
struct Fixture {
  dag::TaskGraph graph = dag::chain(2, 2.0, 4.0);
  net::Topology topo;
  net::NodeId p0, p1, sw;
  net::LinkId p0_sw, sw_p1;

  Fixture() {
    p0 = topo.add_processor(1.0, "p0");
    p1 = topo.add_processor(1.0, "p1");
    sw = topo.add_switch("sw");
    p0_sw = topo.add_duplex_link(p0, sw, 1.0).first;
    sw_p1 = topo.add_duplex_link(sw, p1, 1.0).first;
  }

  /// A correct exclusive-model schedule: task0 on p0 [0,2], transfer
  /// [2,6] on both hops (cut-through), task1 on p1 [6,8].
  Schedule good() const {
    Schedule s("hand", 2, 1);
    s.place_task(dag::TaskId(0u), TaskPlacement{p0, 0.0, 2.0});
    s.place_task(dag::TaskId(1u), TaskPlacement{p1, 6.0, 8.0});
    OwnedComm comm;
    comm.kind = Communication::Kind::kExclusive;
    comm.route = {p0_sw, sw_p1};
    comm.occupations = {LinkOccupation{p0_sw, 2.0, 2.0, 6.0},
                        LinkOccupation{sw_p1, 2.0, 2.0, 6.0}};
    comm.arrival = 6.0;
    write(s, dag::EdgeId(0u), comm);
    return s;
  }
};

TEST(Validator, AcceptsCorrectSchedule) {
  const Fixture f;
  const auto violations = validate(f.graph, f.topo, f.good());
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
  EXPECT_TRUE(is_valid(f.graph, f.topo, f.good()));
  EXPECT_NO_THROW(validate_or_throw(f.graph, f.topo, f.good()));
}

TEST(Validator, CatchesUnplacedTask) {
  const Fixture f;
  Schedule s("bad", 2, 1);
  s.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  EXPECT_FALSE(is_valid(f.graph, f.topo, s));
}

TEST(Validator, CatchesWrongDuration) {
  const Fixture f;
  Schedule s = f.good();
  // Rebuild with a too-short task 1.
  Schedule bad("bad", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 6.0, 7.0});
  write(bad, dag::EdgeId(0u), own(s.communication(dag::EdgeId(0u))));
  const auto violations = validate(f.graph, f.topo, bad);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("duration"), std::string::npos);
}

TEST(Validator, CatchesNegativeStart) {
  const Fixture f;
  Schedule bad("bad", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, -1.0, 1.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p0, 1.0, 3.0});
  OwnedComm comm;
  comm.kind = Communication::Kind::kLocal;
  comm.arrival = 1.0;
  write(bad, dag::EdgeId(0u), comm);
  EXPECT_FALSE(is_valid(f.graph, f.topo, bad));
}

TEST(Validator, CatchesNonFiniteTime) {
  // Every tolerance comparison is false for NaN and for inf - inf, so
  // each of these passed the other checks.
  const Fixture f;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_non_finite = [&](const Schedule& bad) {
    const auto violations = validate(f.graph, f.topo, bad);
    EXPECT_TRUE(std::any_of(violations.begin(), violations.end(),
                            [](const std::string& violation) {
                              return violation.find("non-finite") !=
                                     std::string::npos;
                            }))
        << violations.size() << " violations";
  };

  // The destination at (inf, inf) behind an endless transfer, makespan
  // inf: what OIHSA produced on a link of speed 1e-320.
  Schedule endless("bad", 2, 1);
  endless.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  endless.place_task(dag::TaskId(1u), TaskPlacement{f.p1, inf, inf});
  OwnedComm comm = own(f.good().communication(dag::EdgeId(0u)));
  comm.occupations[0].finish = inf;
  comm.occupations[1].finish = inf;
  comm.arrival = inf;
  write(endless, dag::EdgeId(0u), comm);
  expect_non_finite(endless);

  // A NaN slot time alone.
  Schedule slot = f.good();
  comm = own(slot.communication(dag::EdgeId(0u)));
  comm.occupations[1].finish = nan;
  write(slot, dag::EdgeId(0u), comm);
  expect_non_finite(slot);

  // A NaN arrival alone.
  Schedule arrival = f.good();
  comm = own(arrival.communication(dag::EdgeId(0u)));
  comm.arrival = nan;
  write(arrival, dag::EdgeId(0u), comm);
  expect_non_finite(arrival);

  // A NaN task start alone.
  Schedule start("bad", 2, 1);
  start.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  start.place_task(dag::TaskId(1u), TaskPlacement{f.p1, nan, 8.0});
  write(start, dag::EdgeId(0u), own(f.good().communication(dag::EdgeId(0u))));
  expect_non_finite(start);
}

TEST(Validator, CatchesProcessorOverlap) {
  const Fixture f;
  Schedule bad("bad", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p0, 1.0, 3.0});
  OwnedComm comm;
  comm.kind = Communication::Kind::kLocal;
  comm.arrival = 2.0;
  write(bad, dag::EdgeId(0u), comm);
  const auto violations = validate(f.graph, f.topo, bad);
  EXPECT_FALSE(violations.empty());
}

TEST(Validator, CatchesPrecedenceViolation) {
  const Fixture f;
  Schedule bad("bad", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 4.0, 6.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p0, 0.0, 2.0});
  OwnedComm comm;
  comm.kind = Communication::Kind::kLocal;
  comm.arrival = 6.0;
  write(bad, dag::EdgeId(0u), comm);
  EXPECT_FALSE(is_valid(f.graph, f.topo, bad));
}

TEST(Validator, CatchesMissingRoute) {
  const Fixture f;
  Schedule bad = f.good();
  Schedule rebuilt("bad", 2, 1);
  rebuilt.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  rebuilt.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 6.0, 8.0});
  OwnedComm comm = own(bad.communication(dag::EdgeId(0u)));
  comm.route = {f.p0_sw};  // truncated route
  comm.occupations.pop_back();
  write(rebuilt, dag::EdgeId(0u), comm);
  const auto violations = validate(f.graph, f.topo, rebuilt);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("route"), std::string::npos);
}

TEST(Validator, CatchesWrongSlotLength) {
  const Fixture f;
  Schedule rebuilt("bad", 2, 1);
  rebuilt.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  rebuilt.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 6.0, 8.0});
  OwnedComm comm = own(f.good().communication(dag::EdgeId(0u)));
  comm.occupations[0].start = 3.0;  // slot now 3 units, c/s = 4
  write(rebuilt, dag::EdgeId(0u), comm);
  EXPECT_FALSE(is_valid(f.graph, f.topo, rebuilt));
}

TEST(Validator, CatchesCausalityViolation) {
  const Fixture f;
  Schedule rebuilt("bad", 2, 1);
  rebuilt.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  rebuilt.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 6.0, 8.0});
  OwnedComm comm = own(f.good().communication(dag::EdgeId(0u)));
  // Second hop finishes before the first: impossible.
  comm.occupations[1] = LinkOccupation{f.sw_p1, 1.0, 1.0, 5.0};
  comm.arrival = 5.0;
  write(rebuilt, dag::EdgeId(0u), comm);
  EXPECT_FALSE(is_valid(f.graph, f.topo, rebuilt));
}

TEST(Validator, CatchesStartBeforeArrival) {
  const Fixture f;
  Schedule rebuilt("bad", 2, 1);
  rebuilt.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  rebuilt.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 5.0, 7.0});
  write(rebuilt, dag::EdgeId(0u),
        own(f.good().communication(dag::EdgeId(0u))));
  const auto violations = validate(f.graph, f.topo, rebuilt);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("arrival"), std::string::npos);
}

TEST(Validator, CatchesDomainOverlapAcrossEdges) {
  // Two edges booked on the same link at overlapping times.
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(1.0);
  const dag::TaskId b = builder.add_task(1.0);
  const dag::TaskId c = builder.add_task(1.0);
  const dag::TaskId d = builder.add_task(1.0);
  const dag::EdgeId e0 = builder.add_edge(a, c, 2.0);
  const dag::EdgeId e1 = builder.add_edge(b, d, 2.0);
  const dag::TaskGraph graph = builder.build();

  net::Topology topo;
  const net::NodeId p0 = topo.add_processor();
  const net::NodeId p1 = topo.add_processor();
  const net::LinkId link = topo.add_link(p0, p1, 1.0);
  (void)topo.add_link(p1, p0, 1.0);

  Schedule s("bad", 4, 2);
  s.place_task(a, TaskPlacement{p0, 0.0, 1.0});
  s.place_task(b, TaskPlacement{p0, 1.0, 2.0});
  s.place_task(c, TaskPlacement{p1, 4.0, 5.0});
  s.place_task(d, TaskPlacement{p1, 5.0, 6.0});
  OwnedComm comm0;
  comm0.kind = Communication::Kind::kExclusive;
  comm0.route = {link};
  comm0.occupations = {LinkOccupation{link, 1.0, 1.0, 3.0}};
  comm0.arrival = 3.0;
  OwnedComm comm1 = comm0;
  comm1.occupations = {LinkOccupation{link, 2.0, 2.0, 4.0}};  // overlaps!
  comm1.arrival = 4.0;
  write(s, e0, comm0);
  write(s, e1, comm1);
  const auto violations = validate(graph, topo, s);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    found = found || v.find("overlapping") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, BandwidthOverbookingIsCaught) {
  dag::TaskGraphBuilder builder;
  const dag::TaskId a = builder.add_task(1.0);
  const dag::TaskId b = builder.add_task(1.0);
  const dag::TaskId c = builder.add_task(1.0);
  const dag::TaskId d = builder.add_task(1.0);
  const dag::EdgeId e0 = builder.add_edge(a, c, 2.0);
  const dag::EdgeId e1 = builder.add_edge(b, d, 2.0);
  const dag::TaskGraph graph = builder.build();

  net::Topology topo;
  const net::NodeId p0 = topo.add_processor();
  const net::NodeId p1 = topo.add_processor();
  const net::LinkId link = topo.add_link(p0, p1, 1.0);
  (void)topo.add_link(p1, p0, 1.0);

  Schedule s("bad", 4, 2);
  s.place_task(a, TaskPlacement{p0, 0.0, 1.0});
  s.place_task(b, TaskPlacement{p0, 1.0, 2.0});
  s.place_task(c, TaskPlacement{p1, 4.0, 5.0});
  s.place_task(d, TaskPlacement{p1, 5.0, 6.0});
  const auto bandwidth_comm = [&](double start) {
    OwnedComm comm;
    comm.kind = Communication::Kind::kBandwidth;
    comm.route = {link};
    timeline::RateProfile p;
    p.append(start, start + 2.0, 1.0);  // full capacity each
    comm.profiles = {p};
    comm.arrival = start + 2.0;
    return comm;
  };
  write(s, e0, bandwidth_comm(1.0));
  write(s, e1, bandwidth_comm(2.0));  // overlaps in [2, 3]
  const auto violations = validate(graph, topo, s);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    found = found || v.find("capacity") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, PacketizedGoodAndBadSchedules) {
  const Fixture f;
  // cost 4 in 2 packets of volume 2 over 2 hops, store-and-forward:
  // packet 0: [2,4] then [4,6]; packet 1: [4,6] then [6,8]. Arrival 8.
  const auto packet_comm = [&](bool break_ordering) {
    OwnedComm comm;
    comm.kind = Communication::Kind::kPacketized;
    comm.route = {f.p0_sw, f.sw_p1};
    comm.packet_count = 2;
    comm.occupations = {
        LinkOccupation{f.p0_sw, 2.0, 2.0, 4.0},
        LinkOccupation{f.sw_p1, 4.0, 4.0, 6.0},
        LinkOccupation{f.p0_sw, 4.0, 4.0, 6.0},
        LinkOccupation{f.sw_p1, 6.0, 6.0, 8.0},
    };
    if (break_ordering) {
      // Packet 0's second hop starts before its first hop finished.
      comm.occupations[1] = LinkOccupation{f.sw_p1, 2.0, 2.0, 4.0};
    }
    comm.arrival = 8.0;
    return comm;
  };

  Schedule good("packets", 2, 1);
  good.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  good.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 8.0, 10.0});
  write(good, dag::EdgeId(0u), packet_comm(false));
  const auto ok = validate(f.graph, f.topo, good);
  EXPECT_TRUE(ok.empty()) << (ok.empty() ? "" : ok.front());

  Schedule bad("packets", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 8.0, 10.0});
  write(bad, dag::EdgeId(0u), packet_comm(true));
  const auto violations = validate(f.graph, f.topo, bad);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    found = found || v.find("previous hop") != std::string::npos ||
            v.find("overlapping") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, PacketizedCountMismatchCaught) {
  const Fixture f;
  Schedule bad("packets", 2, 1);
  bad.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  bad.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 8.0, 10.0});
  OwnedComm comm;
  comm.kind = Communication::Kind::kPacketized;
  comm.route = {f.p0_sw, f.sw_p1};
  comm.packet_count = 2;
  comm.occupations = {LinkOccupation{f.p0_sw, 2.0, 2.0, 4.0}};  // short
  comm.arrival = 4.0;
  write(bad, dag::EdgeId(0u), comm);
  const auto violations = validate(f.graph, f.topo, bad);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("packet"), std::string::npos);
}

TEST(Validator, ContentionFreeCanBeDisallowed) {
  const Fixture f;
  Schedule s("classic", 2, 1);
  s.place_task(dag::TaskId(0u), TaskPlacement{f.p0, 0.0, 2.0});
  s.place_task(dag::TaskId(1u), TaskPlacement{f.p1, 6.0, 8.0});
  OwnedComm comm;
  comm.kind = Communication::Kind::kContentionFree;
  comm.arrival = 6.0;
  write(s, dag::EdgeId(0u), comm);
  EXPECT_TRUE(is_valid(f.graph, f.topo, s));
  ValidationOptions strict;
  strict.allow_contention_free = false;
  EXPECT_FALSE(is_valid(f.graph, f.topo, s, strict));
}

TEST(Validator, DimensionMismatchIsCaught) {
  const Fixture f;
  const Schedule s("bad", 1, 0);
  const auto violations = validate(f.graph, f.topo, s);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("dimensions"), std::string::npos);
}

}  // namespace
}  // namespace edgesched::sched
