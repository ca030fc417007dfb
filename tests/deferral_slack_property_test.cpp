// The Lemma-2 deferral slack stored in each link slot (OIHSA, §4.4).
//
// `ExclusiveNetworkState` writes every slot's slack when its occupant's
// record is complete and rewrites it whenever a deferral moves one of its
// inputs, so optimal insertion reads slots instead of records. The claim
// is that the stored value always equals what the record match computed
// on every read before: find the occupation on the slot's contention
// domain with the slot's start and finish, and take
// max(0, min(next.t_es − t_es, next.t_f − t_f)) towards the next hop (0
// on the last). This suite keeps that match as its oracle and requires
// bit-equal slack on every slot after every operation, on random fabrics
// with shared media and half-duplex cables, under a random mix of:
//
//   * optimal commits (which displace earlier edges),
//   * basic commits, some along arbitrary link sequences that revisit a
//     contention domain or a link,
//   * basic commits rolled back at once, as BA's tentative trials do,
//   * store-and-forward packet commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "obs/counters.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::sched {
namespace {

/// Relative time tolerance of the record match.
double match_eps(double t) { return 1e-9 * std::max(1.0, std::abs(t)); }

/// The record match that computed a slot's slack on every read before the
/// slack lived in the slot, kept verbatim as the oracle.
double record_match_deferral(const net::Topology& topology,
                             std::span<const LinkOccupation> record,
                             net::DomainId domain,
                             const timeline::TimeSlot& slot) {
  for (std::size_t i = 0; i < record.size(); ++i) {
    const LinkOccupation& occ = record[i];
    if (topology.domain(record[i].link) == domain &&
        std::abs(occ.start - slot.start) <= match_eps(occ.start) &&
        std::abs(occ.finish - slot.finish) <= match_eps(occ.finish)) {
      if (i + 1 == record.size()) {
        return 0.0;
      }
      const LinkOccupation& next = record[i + 1];
      return std::max(
          0.0, std::min(next.earliest_start - occ.earliest_start,
                        next.finish - occ.finish));
    }
  }
  ADD_FAILURE() << "slot of edge " << slot.edge.value()
                << " has no matching occupation record";
  return std::numeric_limits<double>::quiet_NaN();
}

/// A random WAN plus one bus over some of its processors and a
/// half-duplex cable, so contention domains are shared.
net::Topology random_fabric(Rng& rng) {
  net::RandomWanParams params;
  params.num_processors = 12;
  params.fanout_min = 3;
  params.fanout_max = 5;
  params.extra_switch_link_probability = 0.5;
  params.speeds.heterogeneous = true;
  net::Topology topology = net::random_wan(params, rng);
  const std::vector<net::NodeId>& procs = topology.processors();
  (void)topology.add_bus({procs[0], procs[3], procs[6], procs[9]}, 2.0);
  (void)topology.add_bus({procs[1], procs[10]}, 3.0);
  return topology;
}

bool distinct_domains(const net::Topology& topology,
                      const net::Route& route) {
  std::set<net::DomainId> seen;
  for (const net::LinkId link : route) {
    if (!seen.insert(topology.domain(link)).second) {
      return false;
    }
  }
  return true;
}

/// Compares every slot's stored slack with the oracle; returns the
/// number of slots checked.
std::size_t expect_slack_matches(const ExclusiveNetworkState& state,
                                 int step) {
  const net::Topology& topology = state.topology();
  std::set<net::DomainId> visited;
  std::size_t checked = 0;
  for (const net::LinkId link : topology.all_links()) {
    const net::DomainId domain = topology.domain(link);
    if (!visited.insert(domain).second) {
      continue;
    }
    for (const timeline::TimeSlot& slot : state.timeline(link).slots()) {
      const auto record = state.record(slot.edge);
      EXPECT_FALSE(record.empty()) << "step " << step;
      const double want =
          record_match_deferral(topology, record, domain, slot);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(slot.deferral),
                std::bit_cast<std::uint64_t>(want))
          << "step " << step << ": edge " << slot.edge.value() << " hop "
          << slot.hop << " stores " << slot.deferral << ", record match "
          << want;
      ++checked;
    }
  }
  return checked;
}

class DeferralSlackProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeferralSlackProperty, StoredSlackEqualsTheRecordMatch) {
  Rng rng(GetParam() * 6151);
  const net::Topology topology = random_fabric(rng);
  const net::StaticRouteTable routes(topology);
  const std::vector<net::NodeId>& procs = topology.processors();
  const std::vector<net::LinkId> links = topology.all_links();
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  obs::HotCounters& counters = obs::hot_counters();
  const std::uint64_t shifts_before = counters.slot_shifts.value();
  const std::uint64_t reads_before = counters.deferral_scans.value();
  const std::uint64_t scans_before = counters.optimal_scan_steps.value();
  constexpr std::size_t kEdges = 360;
  std::size_t checked = 0;
  {
    ExclusiveNetworkState state(topology, kEdges);
    for (std::size_t e = 0; e < kEdges; ++e) {
      const dag::EdgeId edge(e);
      const net::NodeId from = procs[pick(procs.size())];
      net::NodeId to = procs[pick(procs.size())];
      if (to == from) {
        to = procs[(from.index() + 1) % procs.size()];
      }
      const net::Route& table_route = routes.route(from, to);
      const double ready = rng.uniform_real(0.0, 60.0);
      const double cost = rng.uniform_real(0.5, 12.0);
      const double kind = rng.uniform_real(0.0, 1.0);
      if (kind < 0.55 && distinct_domains(topology, table_route)) {
        (void)state.commit_edge_optimal(edge, table_route, ready, cost);
      } else if (kind < 0.7) {
        // Any link sequence: hops may revisit a domain or a link.
        net::Route walk;
        const std::size_t hops = 1 + pick(5);
        for (std::size_t h = 0; h < hops; ++h) {
          walk.push_back(links[pick(links.size())]);
        }
        (void)state.commit_edge_basic(edge, walk, ready, cost);
      } else if (kind < 0.8) {
        // A tentative trial: booked, then rolled back.
        (void)state.commit_edge_basic(edge, table_route, ready, cost);
        state.uncommit_edge(edge);
      } else if (kind < 0.9) {
        const std::size_t packets = 2 + pick(3);
        (void)state.commit_packets(edge, table_route, ready,
                                   cost / static_cast<double>(packets),
                                   packets);
      } else {
        (void)state.commit_edge_basic(edge, table_route, ready, cost);
      }
      checked += expect_slack_matches(state, static_cast<int>(e));
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(checked, 10000u);
  // The optimal commits displaced booked slots, so rewrites ran.
  const std::uint64_t shifts = counters.slot_shifts.value() - shifts_before;
  EXPECT_GT(shifts, 20u);
  // One slack read per scan step and one per displaced slot.
  EXPECT_EQ(counters.deferral_scans.value() - reads_before,
            counters.optimal_scan_steps.value() - scans_before + shifts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeferralSlackProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/// p0, p1, p2 on one bus: a route p0 -> p1 -> p2 books both hops in the
/// bus's one domain, so its second hop's optimal probe meets the first
/// hop's slot before the edge's record is complete. That slot cannot be
/// deferred: the second hop queues behind it, and once the record closes
/// both slots carry their Lemma-2 slack.
TEST(DeferralSlack, RouteCrossingOneDomainTwiceQueuesBehindItself) {
  net::Topology topology;
  const net::NodeId p0 = topology.add_processor();
  const net::NodeId p1 = topology.add_processor();
  const net::NodeId p2 = topology.add_processor();
  (void)topology.add_bus({p0, p1, p2});
  net::LinkId hop0;
  net::LinkId hop1;
  for (const net::LinkId link : topology.all_links()) {
    if (topology.link(link).src == p0 && topology.link(link).dst == p1) {
      hop0 = link;
    }
    if (topology.link(link).src == p1 && topology.link(link).dst == p2) {
      hop1 = link;
    }
  }
  ExclusiveNetworkState state(topology, 2);
  const double arrival =
      state.commit_edge_optimal(dag::EdgeId(0u), {hop0, hop1}, 0.0, 2.0);
  const std::span<const LinkOccupation> record =
      state.record(dag::EdgeId(0u));
  ASSERT_EQ(record.size(), 2u);
  EXPECT_EQ(record[0].start, 0.0);
  EXPECT_EQ(record[1].start, record[0].finish);
  EXPECT_EQ(arrival, record[1].finish);
  const std::vector<timeline::TimeSlot>& slots =
      state.timeline(hop0).slots();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].deferral, 2.0);  // hop 1 finishes 2 later
  EXPECT_EQ(slots[1].deferral, 0.0);  // the last hop
  // A later edge reads both slacks.
  (void)state.commit_edge_optimal(dag::EdgeId(1u), {hop0}, 0.0, 1.0);
  EXPECT_EQ(state.timeline(hop0).slots().size(), 3u);
}

}  // namespace
}  // namespace edgesched::sched
