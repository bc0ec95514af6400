// Tests for the bounded flooding scheme (§4): the four CDP tests, the
// elliptical bound, destination-side selection, overhead accounting and
// budget behaviour, with the flood pinned to the node-list reference in
// drtp_oracle.
#include <gtest/gtest.h>

#include "common/check.h"
#include "drtp/bounded_flood.h"
#include "drtp/network.h"
#include "net/generators.h"
#include "oracle/route_reference.h"

namespace drtp::core {
namespace {

routing::Path NodePath(const net::Topology& topo,
                       std::vector<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, nodes);
  DRTP_CHECK(p.has_value());
  return *p;
}

lsdb::LinkStateDb DummyDb(const DrtpNetwork& net) {
  lsdb::LinkStateDb db(net.topology().num_links(),
                       net.topology().num_links());
  return db;  // BF never reads it
}

TEST(BoundedFlood, FindsPrimaryAndDisjointBackupOnRing) {
  DrtpNetwork net(net::MakeRing(6, Mbps(10)));
  BoundedFlooding bf(net.topology(),
                     FloodConfig{.rho = 1.0, .sigma = 2, .alpha = 1.0,
                                 .beta = 0, .max_cdps = 100000});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 2, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 2);
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_EQ(sel.backup->hops(), 4);
  EXPECT_TRUE(sel.primary->LinkDisjoint(*sel.backup));
  EXPECT_GT(sel.control_messages, 0);
  EXPECT_GT(sel.control_bytes, sel.control_messages * 24);
}

TEST(BoundedFlood, HopLimitBoundsRouteLength) {
  DrtpNetwork net(net::MakeRing(8, Mbps(10)));
  // rho=1, sigma=0: only minimum-hop routes survive the distance test, so
  // the 6-hop counter-rotation backup cannot be discovered.
  BoundedFlooding tight(net.topology(), FloodConfig{.rho = 1.0, .sigma = 0});
  auto db = DummyDb(net);
  const auto sel = tight.SelectRoutes(net, db, 0, 2, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_FALSE(sel.backup.has_value());

  // Widening sigma to 4 admits the long way around (2 + 4 = 6 hops).
  BoundedFlooding wide(net.topology(), FloodConfig{.rho = 1.0, .sigma = 4});
  const auto sel2 = wide.SelectRoutes(net, db, 0, 2, Mbps(1));
  ASSERT_TRUE(sel2.backup.has_value());
  EXPECT_EQ(sel2.backup->hops(), 6);
}

TEST(BoundedFlood, EveryCandidateRespectsEllipse) {
  DrtpNetwork net(net::MakeGrid(4, 4, Mbps(10)));
  const FloodConfig cfg{.rho = 1.0, .sigma = 2};
  BoundedFlooding bf(net.topology(), cfg);
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 15, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  ASSERT_TRUE(sel.backup.has_value());
  const int min_hops = 6;  // corner to corner on 4x4
  EXPECT_LE(sel.primary->hops(), min_hops + cfg.sigma);
  EXPECT_LE(sel.backup->hops(), min_hops + cfg.sigma);
}

TEST(BoundedFlood, BandwidthTestBlocksPrimaryButAllowsBackupOverSpare) {
  // A link whose free pool is consumed by spare reservations may still
  // carry a *backup* (total - prime >= bw) but not a primary.
  DrtpNetwork net(net::MakeRing(4, Mbps(2)));
  const LinkId l01 = net.topology().FindLink(0, 1);
  // Fill 0->1 with 1 Mbps primary + 1 Mbps spare (via a helper conn).
  ASSERT_TRUE(net.EstablishConnection(
      90, NodePath(net.topology(), {3, 0, 1}), Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(
      91, NodePath(net.topology(), {3, 2, 1}), Mbps(1), 0.0));
  net.RegisterBackup(91, NodePath(net.topology(), {3, 0, 1}));
  EXPECT_EQ(net.ledger().free(l01), 0);
  EXPECT_EQ(net.ledger().spare(l01), Mbps(1));

  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 2});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  // Primary cannot use 0->1 (no free bandwidth): it detours 0-3-2-1.
  EXPECT_FALSE(sel.primary->Contains(l01));
  EXPECT_EQ(sel.primary->hops(), 3);
  // The backup may ride 0->1's spare pool.
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_TRUE(sel.backup->Contains(l01));
}

TEST(BoundedFlood, FullySaturatedLinkStopsCdps) {
  DrtpNetwork net(net::MakeRing(4, Mbps(1)));
  // Saturate 0->1 with prime bandwidth: even backups cannot cross.
  ASSERT_TRUE(net.EstablishConnection(
      90, NodePath(net.topology(), {0, 1}), Mbps(1), 0.0));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 2});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 3);  // forced around
  EXPECT_FALSE(sel.primary->Contains(net.topology().FindLink(0, 1)));
}

TEST(BoundedFlood, DownLinksAreNotFlooded) {
  DrtpNetwork net(net::MakeRing(4, Mbps(10)));
  net.SetLinkDown(net.topology().FindLink(0, 1));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 2});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 3);
}

TEST(BoundedFlood, UnreachableDestinationYieldsNothing) {
  net::Topology topo;
  topo.AddNode();
  topo.AddNode();
  topo.AddNode();
  topo.AddDuplexLink(0, 1, Mbps(1));
  DrtpNetwork net(std::move(topo));
  BoundedFlooding bf(net.topology());
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 2, Mbps(1));
  EXPECT_FALSE(sel.primary.has_value());
  EXPECT_EQ(sel.control_messages, 0);
}

TEST(BoundedFlood, LoopFreedomHoldsOnEveryCandidate) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(10)));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 3, .beta = 3});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 8, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_TRUE(sel.primary->IsSimple());
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_TRUE(sel.backup->IsSimple());
}

TEST(BoundedFlood, CdpBudgetStopsFloodButReportsIt) {
  DrtpNetwork net(net::MakeGrid(4, 4, Mbps(10)));
  BoundedFlooding bf(net.topology(),
                     FloodConfig{.sigma = 2, .max_cdps = 10});
  auto db = DummyDb(net);
  const auto sel = bf.SelectRoutes(net, db, 0, 15, Mbps(1));
  EXPECT_TRUE(bf.last_stats().budget_exhausted);
  EXPECT_LE(bf.last_stats().cdp_forwards, 10);
  (void)sel;
}

/// The flood's CRT and stats, and SelectRoutes's choice, must equal the
/// reference flood's under the same distance table and config.
void ExpectFloodMatchesReference(BoundedFlooding& bf, const DrtpNetwork& net,
                                 NodeId src, NodeId dst, Bandwidth bw) {
  const oracle::FloodResult ref = oracle::FloodReference(
      net, bf.distance_table(), bf.config(), src, dst, bw);
  EXPECT_EQ(bf.FloodCandidates(net, src, dst, bw), ref.crt);
  EXPECT_EQ(bf.last_stats(), ref.stats);
  const RouteSelection sel = bf.SelectRoutes(net, DummyDb(net), src, dst, bw);
  const RouteSelection want = oracle::SelectRoutesReference(ref);
  EXPECT_EQ(sel.primary, want.primary);
  EXPECT_EQ(sel.backup, want.backup);
  EXPECT_EQ(sel.control_messages, want.control_messages);
  EXPECT_EQ(sel.control_bytes, want.control_bytes);
}

TEST(BoundedFlood, CdpBudgetDropsCdpsQueuedForDestination) {
  // Square 0-1-2-3 with 0->1 inserted first: the first forward reaches
  // the destination, and the second (0->3) exhausts a budget of one while
  // that CDP still waits in the queue. It is dropped, as the reference
  // deque's clear() dropped it.
  net::Topology topo;
  for (int i = 0; i < 4; ++i) topo.AddNode();
  topo.AddDuplexLink(0, 1, Mbps(10));
  topo.AddDuplexLink(0, 3, Mbps(10));
  topo.AddDuplexLink(3, 2, Mbps(10));
  topo.AddDuplexLink(2, 1, Mbps(10));
  DrtpNetwork net(std::move(topo));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 2, .max_cdps = 1});
  const auto crt = bf.FloodCandidates(net, 0, 1, Mbps(1));
  EXPECT_TRUE(bf.last_stats().budget_exhausted);
  EXPECT_EQ(bf.last_stats().cdp_forwards, 1);
  EXPECT_TRUE(crt.empty());
  const oracle::FloodResult ref = oracle::FloodReference(
      net, bf.distance_table(), bf.config(), 0, 1, Mbps(1));
  EXPECT_EQ(static_cast<int>(crt.size()), ref.stats.candidates);
  EXPECT_EQ(bf.last_stats(), ref.stats);

  // With room for both forwards the direct CDP is dequeued and kept.
  BoundedFlooding roomy(net.topology(),
                        FloodConfig{.sigma = 2, .max_cdps = 2});
  EXPECT_FALSE(roomy.FloodCandidates(net, 0, 1, Mbps(1)).empty());
  ExpectFloodMatchesReference(roomy, net, 0, 1, Mbps(1));
}

TEST(BoundedFlood, MatchesReferenceUnderEveryBudget) {
  // Loaded grid (some links primary-infeasible, one saturated), every
  // budget from one CDP up to an unbounded flood.
  DrtpNetwork net(net::MakeGrid(4, 4, Mbps(2)));
  ASSERT_TRUE(net.EstablishConnection(
      90, NodePath(net.topology(), {0, 1, 2, 6}), Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(
      91, NodePath(net.topology(), {4, 5, 6, 7}), Mbps(2), 0.0));
  net.RegisterBackup(90, NodePath(net.topology(), {0, 4, 8, 9, 10, 6}));
  std::int64_t unbounded = 0;
  {
    BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 3, .beta = 2});
    ExpectFloodMatchesReference(bf, net, 0, 15, Mbps(1));
    unbounded = bf.last_stats().cdp_forwards;
    ASSERT_FALSE(bf.last_stats().budget_exhausted);
  }
  ASSERT_GT(unbounded, 20);
  for (std::int64_t budget = 1; budget <= unbounded + 1; ++budget) {
    BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 3, .beta = 2,
                                                   .max_cdps = budget});
    ExpectFloodMatchesReference(bf, net, 0, 15, Mbps(1));
    EXPECT_EQ(bf.last_stats().budget_exhausted, budget < unbounded)
        << "budget " << budget;
  }
}

TEST(BoundedFlood, WiderBoundsNeverFindWorsePrimary) {
  DrtpNetwork net(net::MakeGrid(4, 4, Mbps(10)));
  auto db = DummyDb(net);
  BoundedFlooding narrow(net.topology(), FloodConfig{.sigma = 0});
  BoundedFlooding wide(net.topology(), FloodConfig{.sigma = 3, .beta = 2});
  const auto a = narrow.SelectRoutes(net, db, 1, 14, Mbps(1));
  const auto b = wide.SelectRoutes(net, db, 1, 14, Mbps(1));
  ASSERT_TRUE(a.primary.has_value() && b.primary.has_value());
  EXPECT_EQ(a.primary->hops(), b.primary->hops());
  EXPECT_GE(b.control_messages, a.control_messages);
}

TEST(BoundedFlood, RebuildDistanceTableAfterFailure) {
  DrtpNetwork net(net::MakeRing(5, Mbps(10)));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 0});
  auto db = DummyDb(net);
  // 0->1 direct is min-hop.
  auto sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 1);
  // Fail the link; with stale distance tables and sigma=0 the flood finds
  // nothing (4-hop detour exceeds the stale 1-hop limit).
  net.SetLinkDown(net.topology().FindLink(0, 1));
  sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  EXPECT_FALSE(sel.primary.has_value());
  // After rebuilding the tables (§4.1: updated on topology change), the
  // detour is within the new bound.
  bf.RebuildDistanceTable(net);
  sel = bf.SelectRoutes(net, db, 0, 1, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 4);
}

TEST(BoundedFlood, SelectBackupForMinimizesOverlap) {
  DrtpNetwork net(net::MakeRing(6, Mbps(10)));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 4});
  const auto primary = NodePath(net.topology(), {0, 1, 2});
  const auto backup = bf.SelectBackupFor(net, DummyDb(net), primary, Mbps(1));
  ASSERT_TRUE(backup.has_value());
  EXPECT_TRUE(backup->LinkDisjoint(primary));
}

TEST(BoundedFlood, SelectBackupForMatchesReferenceWithAvoidRoutes) {
  // Scored against the primary plus each route to avoid; routes equal to
  // any of them are skipped.
  DrtpNetwork net(net::MakeGrid(4, 4, Mbps(10)));
  BoundedFlooding bf(net.topology(), FloodConfig{.sigma = 4, .beta = 4});
  const net::Topology& topo = net.topology();
  const auto primary = NodePath(topo, {0, 1, 2, 3, 7});
  const std::vector<routing::Path> avoid = {
      NodePath(topo, {0, 4, 5, 6, 7}), NodePath(topo, {0, 4, 8, 9, 10, 11, 7})};
  for (std::size_t n = 0; n <= avoid.size(); ++n) {
    const std::span<const routing::Path> a(avoid.data(), n);
    const auto got = bf.SelectBackupFor(net, DummyDb(net), primary, Mbps(1), a);
    const oracle::FloodResult ref = oracle::FloodReference(
        net, bf.distance_table(), bf.config(), 0, 7, Mbps(1));
    EXPECT_EQ(got, oracle::SelectBackupForReference(ref, primary, a))
        << n << " avoid routes";
    ASSERT_TRUE(got.has_value());
    EXPECT_NE(*got, primary);
    for (const routing::Path& r : a) EXPECT_NE(*got, r);
  }
}

TEST(BoundedFlood, ConfigValidation) {
  const net::Topology topo = net::MakeRing(4, Mbps(1));
  EXPECT_THROW(BoundedFlooding(topo, FloodConfig{.rho = 0.5}), CheckError);
  EXPECT_THROW(BoundedFlooding(topo, FloodConfig{.sigma = -1}), CheckError);
  EXPECT_THROW(BoundedFlooding(topo, FloodConfig{.max_cdps = 0}), CheckError);
}

}  // namespace
}  // namespace drtp::core
