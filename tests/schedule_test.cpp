#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "sched/metrics.hpp"

namespace edgesched::sched {
namespace {

TEST(Schedule, MakespanOfEmptySchedule) {
  const Schedule s("X", 0, 0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
  EXPECT_EQ(s.algorithm(), "X");
}

TEST(Schedule, MakespanTracksLatestFinish) {
  Schedule s("X", 3, 0);
  s.place_task(dag::TaskId(0u), TaskPlacement{net::NodeId(0u), 0.0, 5.0});
  s.place_task(dag::TaskId(1u), TaskPlacement{net::NodeId(1u), 2.0, 9.0});
  s.place_task(dag::TaskId(2u), TaskPlacement{net::NodeId(0u), 5.0, 7.0});
  EXPECT_DOUBLE_EQ(s.makespan(), 9.0);
}

TEST(Schedule, DoublePlacementIsRejected) {
  Schedule s("X", 1, 0);
  s.place_task(dag::TaskId(0u), TaskPlacement{net::NodeId(0u), 0.0, 1.0});
  EXPECT_THROW(
      s.place_task(dag::TaskId(0u),
                   TaskPlacement{net::NodeId(0u), 1.0, 2.0}),
      InternalError);
}

TEST(Schedule, CommunicationRoundTrip) {
  Schedule s("X", 2, 1);
  const net::Route route = {net::LinkId(3u)};
  const std::vector<LinkOccupation> occupations = {
      LinkOccupation{net::LinkId(3u), 1.0, 1.0, 2.0}};
  s.set_communication(dag::EdgeId(0u), Communication::Kind::kExclusive, 2.0,
                      route, occupations);
  const Communication read = s.communication(dag::EdgeId(0u));
  EXPECT_EQ(read.kind, Communication::Kind::kExclusive);
  EXPECT_DOUBLE_EQ(read.arrival, 2.0);
  ASSERT_EQ(read.route.size(), 1u);
  EXPECT_EQ(read.route[0], net::LinkId(3u));
  ASSERT_EQ(read.occupations.size(), 1u);
  EXPECT_DOUBLE_EQ(read.occupations[0].finish, 2.0);
  EXPECT_TRUE(read.profiles.empty());
}

TEST(Schedule, ProfilesRoundTripFlat) {
  Schedule s("X", 2, 2);
  timeline::RateProfile first;
  first.append(0.0, 1.0, 2.0);
  first.append(2.0, 3.0, 1.0);
  timeline::RateProfile second;
  second.append(0.5, 2.5, 1.5);
  const std::vector<timeline::RateProfile> profiles = {first, second};
  const net::Route route = {net::LinkId(1u), net::LinkId(4u)};
  s.set_communication(dag::EdgeId(1u), Communication::Kind::kLocal, 0.0);
  s.set_communication(dag::EdgeId(0u), Communication::Kind::kBandwidth, 2.5,
                      route, {}, 0, profiles);
  const Communication read = s.communication(dag::EdgeId(0u));
  ASSERT_EQ(read.profiles.size(), 2u);
  EXPECT_TRUE(read.occupations.empty());
  EXPECT_EQ(read.profiles[0].segments().size(), 2u);
  EXPECT_DOUBLE_EQ(read.profiles[0].volume(), first.volume());
  EXPECT_DOUBLE_EQ(read.profiles[1].start_time(), 0.5);
  EXPECT_DOUBLE_EQ(read.profiles.back().finish_time(), 2.5);
  EXPECT_EQ(read.profiles[0].breakpoints(), first.breakpoints());
  EXPECT_DOUBLE_EQ(read.profiles[0].cumulative(2.5), first.cumulative(2.5));
  // A copy owns its own arenas and reads back the same.
  const Schedule copy = s;
  const Communication copied = copy.communication(dag::EdgeId(0u));
  EXPECT_NE(copied.route.data(), read.route.data());
  EXPECT_TRUE(std::ranges::equal(copied.route, read.route));
  EXPECT_EQ(copied.profiles[0].breakpoints(), first.breakpoints());
  EXPECT_DOUBLE_EQ(copied.profiles[1].volume(), 3.0);
  EXPECT_EQ(copy.communication(dag::EdgeId(1u)).kind,
            Communication::Kind::kLocal);
}

TEST(Schedule, OccupationsAndProfilesAreExclusive) {
  Schedule s("X", 2, 1);
  timeline::RateProfile profile;
  profile.append(0.0, 1.0, 1.0);
  const std::vector<timeline::RateProfile> profiles = {profile};
  const std::vector<LinkOccupation> occupations = {
      LinkOccupation{net::LinkId(0u), 0.0, 0.0, 1.0}};
  EXPECT_THROW(
      s.set_communication(dag::EdgeId(0u), Communication::Kind::kBandwidth,
                          1.0, {}, occupations, 0, profiles),
      std::invalid_argument);
}

TEST(Schedule, UtilisationAndDump) {
  Rng rng(1);
  const dag::TaskGraph graph = dag::chain(2, 4.0, 1.0);
  const net::Topology topo =
      net::fully_connected(2, net::SpeedConfig{}, rng);
  Schedule s("X", 2, 1);
  s.place_task(dag::TaskId(0u),
               TaskPlacement{topo.processors()[0], 0.0, 4.0});
  s.place_task(dag::TaskId(1u),
               TaskPlacement{topo.processors()[0], 4.0, 8.0});
  s.set_communication(dag::EdgeId(0u), Communication::Kind::kLocal, 4.0);
  EXPECT_DOUBLE_EQ(compute_metrics(graph, topo, s).processor_utilisation, 0.5);
  const std::string dump = s.to_string(graph, topo);
  EXPECT_NE(dump.find("makespan=8"), std::string::npos);
  EXPECT_NE(dump.find("P0"), std::string::npos);
}

}  // namespace
}  // namespace edgesched::sched
