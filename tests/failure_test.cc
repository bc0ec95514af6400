// Tests for the failure machinery: the what-if P_bk evaluator (including
// the Fig. 1 multiplexing stories) and the mutating switchover engine.
#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <string>

#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "drtp/bounded_flood.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "net/generators.h"
#include "oracle/failure_scan.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/scenario.h"
#include "svc/engine.h"
#include "svc/rpc.h"

namespace drtp::core {
namespace {

routing::Path NodePath(const net::Topology& topo,
                       std::vector<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, nodes);
  DRTP_CHECK(p.has_value());
  return *p;
}

/// Builds the Fig. 1 situation on a 3x3 grid (nodes 0..8 row-major):
/// D1 and D2 have disjoint primaries whose backups share links (benign
/// multiplexing); D1 and D3 have overlapping primaries whose backups also
/// share a link (conflict).
class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test() : net_(net::MakeGrid(3, 3, Mbps(2))) {}

  DrtpNetwork net_;
};

TEST_F(Figure1Test, DisjointPrimariesShareSpareSafely) {
  // D1: primary 0-1-2 , backup 0-3-4-5-2.
  // D2: primary 6-7-8 , backup 6-3-4-5-8 — backups share 3->4 and 4->5.
  ASSERT_TRUE(net_.EstablishConnection(1, NodePath(net_.topology(), {0, 1, 2}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(1, NodePath(net_.topology(), {0, 3, 4, 5, 2}));
  ASSERT_TRUE(net_.EstablishConnection(2, NodePath(net_.topology(), {6, 7, 8}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(2, NodePath(net_.topology(), {6, 3, 4, 5, 8}));
  // Shared links hold one slot only (primaries disjoint => multiplexing
  // is free), yet every single-link failure is fully recoverable.
  EXPECT_EQ(net_.ledger().spare(net_.topology().FindLink(3, 4)), Mbps(1));
  const Ratio pbk = EvaluateAllSingleLinkFailures(net_);
  EXPECT_EQ(pbk.hits, pbk.trials);
  EXPECT_GT(pbk.trials, 0);
  EXPECT_DOUBLE_EQ(pbk.value(), 1.0);
}

TEST_F(Figure1Test, ConflictingBackupsContendWhenUnderProvisioned) {
  // Both connections run their primaries over the shared link 0->1; their
  // backups share 3->4. Failing 0->1 activates both; the shared spare
  // must hold two slots (§5) for both to survive.
  ASSERT_TRUE(net_.EstablishConnection(1, NodePath(net_.topology(), {0, 1}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(1, NodePath(net_.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(net_.EstablishConnection(2,
                                       NodePath(net_.topology(), {0, 1, 2}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(2, NodePath(net_.topology(), {0, 3, 4, 5, 2}));
  // APLV of 0->3 lists 0->1 twice -> two spare slots reserved.
  const LinkId l03 = net_.topology().FindLink(0, 3);
  EXPECT_EQ(net_.aplv(l03).Max(), 2);
  EXPECT_EQ(net_.ledger().spare(l03), Mbps(2));
  const FailureImpact impact =
      EvaluateLinkFailure(net_, net_.topology().FindLink(0, 1));
  EXPECT_EQ(impact.attempts, 2);
  EXPECT_EQ(impact.activated, 2);

  // Now starve the shared link so only one slot exists: the same
  // situation, but 0->3 already carries 1 Mbps of primary traffic.
  DrtpNetwork tight2(net::MakeGrid(3, 3, Mbps(2)));
  ASSERT_TRUE(tight2.EstablishConnection(
      9, NodePath(tight2.topology(), {0, 3}), Mbps(1), 0.0));
  ASSERT_TRUE(tight2.EstablishConnection(
      1, NodePath(tight2.topology(), {0, 1}), Mbps(1), 0.0));
  tight2.RegisterBackup(1, NodePath(tight2.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(tight2.EstablishConnection(
      2, NodePath(tight2.topology(), {0, 1, 2}), Mbps(1), 0.0));
  tight2.RegisterBackup(2, NodePath(tight2.topology(), {0, 3, 4, 5, 2}));
  // 0->3: total 2, prime 1 -> spare can only reach 1 of the 2 target.
  EXPECT_EQ(tight2.ledger().spare(tight2.topology().FindLink(0, 3)), Mbps(1));
  EXPECT_FALSE(tight2.OverbookedLinks().empty());
  const FailureImpact tight_impact =
      EvaluateLinkFailure(tight2, tight2.topology().FindLink(0, 1));
  EXPECT_EQ(tight_impact.attempts, 2);
  EXPECT_EQ(tight_impact.activated, 1);  // one of the two loses
}

TEST_F(Figure1Test, BackupThroughFailedLinkCannotActivate) {
  ASSERT_TRUE(net_.EstablishConnection(1, NodePath(net_.topology(), {0, 1}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(1, NodePath(net_.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(net_.EstablishConnection(2, NodePath(net_.topology(), {3, 4}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(2, NodePath(net_.topology(), {3, 0, 1, 4}));
  // Fail 3->4: D2's primary dies; D2's backup 3-0-1-4 is intact -> 1/1.
  const FailureImpact a = EvaluateLinkFailure(net_, net_.topology().FindLink(3, 4));
  EXPECT_EQ(a.attempts, 1);
  EXPECT_EQ(a.activated, 1);
  // A connection whose primary AND backup share a failed link never
  // recovers: craft one.
  DrtpNetwork star(net::MakeStar(3, Mbps(2)));
  ASSERT_TRUE(star.EstablishConnection(
      1, NodePath(star.topology(), {1, 0, 2}), Mbps(1), 0.0));
  star.RegisterBackup(1, NodePath(star.topology(), {1, 0, 2}));
  const FailureImpact b =
      EvaluateLinkFailure(star, star.topology().FindLink(1, 0));
  EXPECT_EQ(b.attempts, 1);
  EXPECT_EQ(b.activated, 0);
}

TEST_F(Figure1Test, UnprotectedConnectionNeverActivates) {
  ASSERT_TRUE(net_.EstablishConnection(1, NodePath(net_.topology(), {0, 1}),
                                       Mbps(1), 0.0));
  const FailureImpact impact =
      EvaluateLinkFailure(net_, net_.topology().FindLink(0, 1));
  EXPECT_EQ(impact.attempts, 1);
  EXPECT_EQ(impact.activated, 0);
}

TEST_F(Figure1Test, EvaluationIsPureWhatIf) {
  ASSERT_TRUE(net_.EstablishConnection(1, NodePath(net_.topology(), {0, 1, 2}),
                                       Mbps(1), 0.0));
  net_.RegisterBackup(1, NodePath(net_.topology(), {0, 3, 4, 5, 2}));
  const Bandwidth prime_before = net_.ledger().TotalPrime();
  const Bandwidth spare_before = net_.ledger().TotalSpare();
  (void)EvaluateAllSingleLinkFailures(net_);
  EXPECT_EQ(net_.ledger().TotalPrime(), prime_before);
  EXPECT_EQ(net_.ledger().TotalSpare(), spare_before);
  EXPECT_EQ(net_.ActiveCount(), 1);
  net_.CheckConsistency();
}

TEST_F(Figure1Test, EmptyNetworkHasNoTrials) {
  const Ratio pbk = EvaluateAllSingleLinkFailures(net_);
  EXPECT_EQ(pbk.trials, 0);
  EXPECT_EQ(pbk.value(), 0.0);
}

// ---- switchover engine -----------------------------------------------------

TEST(Switchover, RecoversAndReroutes) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  Dlsr dlsr;
  const SwitchoverReport report =
      ApplyLinkFailure(net, net.topology().FindLink(0, 1), 1.0, &dlsr, &db);
  EXPECT_EQ(report.recovered, std::vector<ConnId>{1});
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(report.rerouted, std::vector<ConnId>{1});
  const DrConnection* conn = net.Find(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->primary, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  ASSERT_TRUE(conn->has_backup());
  EXPECT_FALSE(conn->backups.front().Contains(net.topology().FindLink(0, 1)));
  EXPECT_EQ(conn->failovers, 1);
  net.CheckConsistency();
}

TEST(Switchover, DropsUnprotectedConnections) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  const SwitchoverReport report =
      ApplyLinkFailure(net, net.topology().FindLink(0, 1), 1.0, nullptr,
                       nullptr);
  EXPECT_EQ(report.dropped, std::vector<ConnId>{1});
  EXPECT_EQ(net.ActiveCount(), 0);
  EXPECT_EQ(net.ledger().TotalPrime(), 0);
}

TEST(Switchover, ReleasesBrokenBackups) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  // Fail a backup-only link: connection stays up, loses protection.
  const SwitchoverReport report = ApplyLinkFailure(
      net, net.topology().FindLink(3, 4), 1.0, nullptr, nullptr);
  EXPECT_TRUE(report.recovered.empty());
  EXPECT_TRUE(report.dropped.empty());
  EXPECT_EQ(report.backups_lost, std::vector<ConnId>{1});
  const DrConnection* conn = net.Find(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->has_backup());
  net.CheckConsistency();
}

TEST(Switchover, ReroutesBrokenBackupWhenSchemeProvided) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  Dlsr dlsr;
  const SwitchoverReport report = ApplyLinkFailure(
      net, net.topology().FindLink(3, 4), 1.0, &dlsr, &db);
  EXPECT_EQ(report.rerouted, std::vector<ConnId>{1});
  const DrConnection* conn = net.Find(1);
  ASSERT_TRUE(conn->has_backup());
  EXPECT_FALSE(conn->backups.front().Contains(net.topology().FindLink(3, 4)));
  net.CheckConsistency();
}

/// Offers the same backup route for any primary: step 4's only candidate.
class FixedBackup : public RoutingScheme {
 public:
  explicit FixedBackup(routing::Path backup) : backup_(std::move(backup)) {}
  std::string name() const override { return "fixed-backup"; }
  RouteSelection SelectRoutes(const DrtpNetwork&, const lsdb::LinkStateDb&,
                              NodeId, NodeId, Bandwidth) override {
    return {};
  }
  std::optional<routing::Path> SelectBackupFor(
      const DrtpNetwork&, const lsdb::LinkStateDb&, const routing::Path&,
      Bandwidth, std::span<const routing::Path>) override {
    return backup_;
  }

 private:
  routing::Path backup_;
};

TEST(Protects, OnlyAFullCoverProtectsNothing) {
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(4));
  const routing::Path primary = NodePath(topo, {0, 1, 2});
  EXPECT_FALSE(Protects(primary, primary));
  EXPECT_TRUE(Protects(NodePath(topo, {0, 1, 4, 5, 2}), primary));
  EXPECT_TRUE(Protects(NodePath(topo, {0, 3, 4, 5, 2}), primary));
}

TEST(Reprotect, RegistersAndReturnsTheOverbookedHops) {
  // 3->4 carries a full primary, so the backup's spare slot there cannot
  // be reserved and RegisterBackup reports one overbooked hop.
  const auto load = [](DrtpNetwork& net) {
    ASSERT_TRUE(net.EstablishConnection(
        1, NodePath(net.topology(), {0, 1, 2}), Mbps(1), 0.0));
    ASSERT_TRUE(net.EstablishConnection(
        2, NodePath(net.topology(), {3, 4}), Mbps(4), 0.0));
  };
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  DrtpNetwork twin(net::MakeGrid(3, 3, Mbps(4)));
  load(net);
  load(twin);
  const routing::Path backup = NodePath(net.topology(), {0, 3, 4, 5, 2});
  const int overbooked = twin.RegisterBackup(1, backup);
  ASSERT_GT(overbooked, 0);

  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  FixedBackup scheme(backup);
  EXPECT_EQ(Reprotect(net, db, scheme, 1, 1.0), overbooked);
  ASSERT_TRUE(net.Find(1)->has_backup());
  EXPECT_EQ(*net.Find(1)->first_backup(), backup);
  EXPECT_EQ(svc::NetworkStateDigest(net), svc::NetworkStateDigest(twin));
  net.CheckConsistency();
}

TEST(Reprotect, RefusesABackupCoveringEveryPrimaryLink) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  const routing::Path primary = NodePath(net.topology(), {0, 1, 2});
  ASSERT_TRUE(net.EstablishConnection(1, primary, Mbps(1), 0.0));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  FixedBackup scheme(primary);
  const std::uint64_t before = svc::NetworkStateDigest(net);
  EXPECT_EQ(Reprotect(net, db, scheme, 1, 1.0), std::nullopt);
  EXPECT_FALSE(net.Find(1)->has_backup());
  EXPECT_EQ(svc::NetworkStateDigest(net), before);
  net.CheckConsistency();
}

TEST(Reprotect, RefusesABackupOverADownLink) {
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(4)));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.SetLinkDown(net.topology().FindLink(4, 5));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  FixedBackup scheme(NodePath(net.topology(), {0, 3, 4, 5, 2}));
  const std::uint64_t before = svc::NetworkStateDigest(net);
  EXPECT_EQ(Reprotect(net, db, scheme, 1, 1.0), std::nullopt);
  EXPECT_FALSE(net.Find(1)->has_backup());
  EXPECT_EQ(svc::NetworkStateDigest(net), before);
  net.CheckConsistency();
}

TEST(Switchover, SequentialFailuresEventuallyDrop) {
  // Ring: after the first failure consumes the backup and the second
  // failure hits the promoted route with no reroute, the connection dies.
  DrtpNetwork net(net::MakeRing(4, Mbps(4)));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 2, 1}));
  auto r1 = ApplyLinkFailure(net, net.topology().FindLink(0, 1), 1.0, nullptr,
                             nullptr);
  EXPECT_EQ(r1.recovered, std::vector<ConnId>{1});
  auto r2 = ApplyLinkFailure(net, net.topology().FindLink(0, 3), 2.0, nullptr,
                             nullptr);
  EXPECT_EQ(r2.dropped, std::vector<ConnId>{1});
  EXPECT_EQ(net.ActiveCount(), 0);
}

TEST(Switchover, DuplexFailureHitsBothDirections) {
  DrtpNetwork net(net::MakeRing(4, Mbps(4)),
                  NetworkConfig{.spare_mode = SpareMode::kMultiplexed,
                                .duplex_failures = true});
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 2, 1}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(net.topology(), {1, 0}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(2, NodePath(net.topology(), {1, 2, 3, 0}));
  const SwitchoverReport report = ApplyLinkFailure(
      net, net.topology().FindLink(0, 1), 1.0, nullptr, nullptr);
  // Both directions' primaries are hit and both recover disjointly.
  EXPECT_EQ(report.recovered.size(), 2u);
  net.CheckConsistency();
}

// ---- what-if vs enacted cross-check --------------------------------------

// Populates `net` with a deterministic D-LSR-routed load. Rebuilding with
// the same seed yields an identical network, so the non-mutating analysis
// on one instance can be compared with the enacted switchover on another.
void LoadDeterministically(DrtpNetwork& net) {
  const net::Topology& topo = net.topology();
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  net.PublishFullTo(db, 0.0);
  Dlsr scheme;
  Rng rng(21);
  ConnId next = 1;
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<NodeId>(
        rng.Index(static_cast<std::size_t>(topo.num_nodes())));
    const auto d = static_cast<NodeId>(
        rng.Index(static_cast<std::size_t>(topo.num_nodes())));
    if (s == d) continue;
    const RouteSelection sel = scheme.SelectRoutes(net, db, s, d, Mbps(1));
    if (!sel.primary.has_value()) continue;
    if (!net.EstablishConnection(next, *sel.primary, Mbps(1), 0.0)) continue;
    if (sel.backup.has_value()) net.RegisterBackup(next, *sel.backup);
    ++next;
    net.PublishTo(db, 0.0);
  }
}

TEST(EvaluateApplyCrossCheck, WhatIfMatchesEnactedSwitchover) {
  const net::Topology topo = net::MakeWaxman({.nodes = 20,
                                              .avg_degree = 3.5,
                                              .link_capacity = Mbps(10),
                                              .seed = 13});
  DrtpNetwork probe(topo);
  LoadDeterministically(probe);
  ASSERT_GT(probe.ActiveCount(), 10);
  std::vector<LinkId> candidates;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (EvaluateLinkFailure(probe, l).attempts > 0) candidates.push_back(l);
  }
  ASSERT_GE(candidates.size(), 6u);
  // Every affected connection the analysis says would activate must be
  // exactly the set the enacted switchover recovers — and same for drops.
  int tested = 0;
  for (const LinkId l : candidates) {
    if (++tested > 6) break;
    DrtpNetwork net(topo);
    LoadDeterministically(net);
    const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l);
    const SwitchoverReport report =
        ApplyLinkFailure(net, l, 1.0, nullptr, nullptr);
    EXPECT_EQ(report.recovered, detail.activated) << "link " << l;
    EXPECT_EQ(report.dropped, detail.dropped) << "link " << l;
    EXPECT_EQ(detail.impact.activated,
              static_cast<int>(report.recovered.size()));
    net.CheckConsistency();
  }
}

TEST(EvaluateApplyCrossCheck, BackupOverDownLinkCannotActivate) {
  // SetLinkDown leaves registered backups in place. A backup crossing a
  // link that is already down must not be promoted by the what-if (sweep,
  // single link, full scan) nor by the enacted switchover.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(10)));
  const net::Topology& topo = net.topology();
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(topo, {4, 5}), Mbps(1),
                                      0.0));
  net.RegisterBackup(1, NodePath(topo, {4, 1, 2, 5}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(topo, {4, 5}), Mbps(1),
                                      0.0));
  net.RegisterBackup(2, NodePath(topo, {4, 7, 8, 5}));
  net.SetLinkDown(topo.FindLink(1, 2));
  const LinkId l45 = topo.FindLink(4, 5);

  const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l45);
  EXPECT_EQ(detail.activated, std::vector<ConnId>{2});
  EXPECT_EQ(detail.dropped, std::vector<ConnId>{1});
  const FailureImpactDetail scanned =
      oracle::EvaluateLinkFailureScanDetailed(net, l45);
  EXPECT_EQ(scanned.activated, detail.activated);
  EXPECT_EQ(scanned.dropped, detail.dropped);
  std::vector<FailureImpact> per_link;
  (void)EvaluateAllSingleLinkFailures(net, &per_link);
  EXPECT_EQ(per_link[static_cast<std::size_t>(l45)].attempts, 2);
  EXPECT_EQ(per_link[static_cast<std::size_t>(l45)].activated, 1);

  const SwitchoverReport report =
      ApplyLinkFailure(net, l45, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, detail.activated);
  EXPECT_EQ(report.dropped, detail.dropped);
}

TEST(EvaluateApplyCrossCheck, AgreeUnderSpareContention) {
  // The Fig. 1 under-provisioned situation: two activations compete for
  // one spare slot on 0->3; both paths must report {recovered: 1,
  // dropped: 2} (connection-id order breaks the tie).
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  ASSERT_TRUE(net.EstablishConnection(9, NodePath(net.topology(), {0, 3}),
                                      Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(2, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  const LinkId l01 = net.topology().FindLink(0, 1);
  const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l01);
  EXPECT_EQ(detail.activated, std::vector<ConnId>{1});
  EXPECT_EQ(detail.dropped, std::vector<ConnId>{2});
  const SwitchoverReport report =
      ApplyLinkFailure(net, l01, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, detail.activated);
  EXPECT_EQ(report.dropped, detail.dropped);
  net.CheckConsistency();
}

TEST(EvaluateApplyCrossCheck, FallsThroughToBackupThatFits) {
  // Connection 1's first backup routes over the saturated 2->5 link; its
  // second (link-disjoint) backup detours around it. The switchover must
  // skip the unfit first choice instead of force-activating it
  // (overbooking) or dropping the connection, and the what-if must
  // predict the same outcome.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  ASSERT_TRUE(net.EstablishConnection(9, NodePath(net.topology(), {2, 5}),
                                      Mbps(2), 0.0));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {1, 4, 7}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {1, 2, 5, 8, 7}));
  net.RegisterBackup(1, NodePath(net.topology(), {1, 0, 3, 6, 7}));
  const LinkId l14 = net.topology().FindLink(1, 4);
  const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l14);
  EXPECT_EQ(detail.activated, std::vector<ConnId>{1});
  EXPECT_TRUE(detail.dropped.empty());
  const SwitchoverReport report =
      ApplyLinkFailure(net, l14, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, detail.activated);
  EXPECT_EQ(report.dropped, detail.dropped);
  EXPECT_TRUE(net.OverbookedLinks().empty());
  net.CheckConsistency();
}

TEST(EvaluateApplyCrossCheck, BackupCreditsItsOwnPrimaryRelease) {
  // Connection 1's backup re-uses link 1->2 from its own primary. The
  // link is fully booked before the failure, but switching over releases
  // the primary's slot on it first, so the activation fits exactly. Both
  // the analysis and the enacted switchover must count that self-credit.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  ASSERT_TRUE(net.EstablishConnection(8, NodePath(net.topology(), {4, 1, 2}),
                                      Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 1, 2}));
  const LinkId l01 = net.topology().FindLink(0, 1);
  const LinkId l12 = net.topology().FindLink(1, 2);
  ASSERT_EQ(net.ledger().spare(l12) + net.ledger().free(l12), Mbps(0));
  const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l01);
  EXPECT_EQ(detail.activated, std::vector<ConnId>{1});
  EXPECT_TRUE(detail.dropped.empty());
  const SwitchoverReport report =
      ApplyLinkFailure(net, l01, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, detail.activated);
  EXPECT_EQ(report.dropped, detail.dropped);
  EXPECT_TRUE(net.OverbookedLinks().empty());
  net.CheckConsistency();
}

TEST(EvaluateApplyCrossCheck, ContentionWithFallThroughInIdOrder) {
  // Three affected connections in id order under scarce capacity on 2->5:
  // connection 1 takes the last 2->5 slot, connection 2's first backup no
  // longer fits there but its link-disjoint detour does, and connection 3
  // (same unfit route, no alternative) drops. Analysis and switchover
  // must agree on the whole partition.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(3)));
  ASSERT_TRUE(net.EstablishConnection(9, NodePath(net.topology(), {2, 5}),
                                      Mbps(2), 0.0));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {1, 4}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {1, 2, 5, 4}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(net.topology(), {1, 4, 7}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(2, NodePath(net.topology(), {1, 2, 5, 8, 7}));
  net.RegisterBackup(2, NodePath(net.topology(), {1, 0, 3, 6, 7}));
  ASSERT_TRUE(net.EstablishConnection(3, NodePath(net.topology(), {1, 4}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(3, NodePath(net.topology(), {1, 2, 5, 4}));
  const LinkId l14 = net.topology().FindLink(1, 4);
  const FailureImpactDetail detail = EvaluateLinkFailureDetailed(net, l14);
  EXPECT_EQ(detail.activated, (std::vector<ConnId>{1, 2}));
  EXPECT_EQ(detail.dropped, std::vector<ConnId>{3});
  const SwitchoverReport report =
      ApplyLinkFailure(net, l14, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, detail.activated);
  EXPECT_EQ(report.dropped, detail.dropped);
  EXPECT_TRUE(net.OverbookedLinks().empty());
  net.CheckConsistency();
}

TEST(EvaluateApplyCrossCheck, ScanAgreesUnderContention) {
  // The indexed evaluator and the full-scan evaluator must model the
  // same contention ledger (id-order credits and debits).
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  ASSERT_TRUE(net.EstablishConnection(9, NodePath(net.topology(), {0, 3}),
                                      Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(2, NodePath(net.topology(), {0, 3, 4, 5, 2}));
  const LinkId l01 = net.topology().FindLink(0, 1);
  const FailureImpact indexed = EvaluateLinkFailure(net, l01);
  const FailureImpact scanned = oracle::EvaluateLinkFailureScan(net, l01);
  EXPECT_EQ(indexed.attempts, scanned.attempts);
  EXPECT_EQ(indexed.activated, scanned.activated);
  EXPECT_EQ(indexed.activated, 1);
}

/// The sweep's per-link output against EvaluateLinkFailure on every link.
void ExpectSweepMatchesPerLink(const DrtpNetwork& net,
                               const std::vector<FailureImpact>& per_link) {
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    const FailureImpact want =
        net.IsLinkUp(l) ? EvaluateLinkFailure(net, l) : FailureImpact{};
    EXPECT_EQ(per_link[static_cast<std::size_t>(l)].attempts, want.attempts)
        << "link " << l;
    EXPECT_EQ(per_link[static_cast<std::size_t>(l)].activated,
              want.activated)
        << "link " << l;
  }
}

TEST(FailureSweep, SharedLinkFailureFallsThroughToSecondBackup) {
  // Connection 1's first backup re-uses 1->2 from its primary; its second
  // backup avoids 1->2. Failing 1->2 rules out the first backup whatever
  // the order, so the shortcut's b* is the second one, and capacity is
  // ample: the sweep decides every set without the walk.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(10)));
  const net::Topology& topo = net.topology();
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(topo, {0, 1, 2}), Mbps(1),
                                      0.0));
  net.RegisterBackup(1, NodePath(topo, {0, 3, 4, 1, 2}));
  net.RegisterBackup(1, NodePath(topo, {0, 1, 4, 5, 2}));
  const LinkId l12 = topo.FindLink(1, 2);

  std::vector<FailureImpact> per_link;
  FailureSweepStats stats;
  const Ratio pbk = EvaluateAllSingleLinkFailures(net, &per_link, &stats);
  EXPECT_EQ(pbk.hits, 2);
  EXPECT_EQ(pbk.trials, 2);
  EXPECT_EQ(stats.failed_sets, 2);
  EXPECT_EQ(stats.contended, 0);
  EXPECT_EQ(per_link[static_cast<std::size_t>(l12)].attempts, 1);
  EXPECT_EQ(per_link[static_cast<std::size_t>(l12)].activated, 1);
  ExpectSweepMatchesPerLink(net, per_link);

  const SwitchoverReport report =
      ApplyLinkFailure(net, l12, 1.0, nullptr, nullptr);
  EXPECT_EQ(report.recovered, std::vector<ConnId>{1});
  EXPECT_EQ(net.Find(1)->primary, NodePath(topo, {0, 1, 4, 5, 2}));
}

TEST(FailureSweep, OverbookedLinkLeavesIdOrderToTheWalk) {
  // Connections a < b both fail over onto 0->3 when 0->1 fails, but 0->3
  // holds one spare slot for a demand of two: the lower id wins. The
  // bound cannot tell which one, so the set is contended and walked, and
  // swapping the ids swaps the winner.
  for (const bool swap : {false, true}) {
    DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
    const net::Topology& topo = net.topology();
    const ConnId short_route = swap ? 2 : 1;
    const ConnId long_route = swap ? 1 : 2;
    ASSERT_TRUE(net.EstablishConnection(9, NodePath(topo, {0, 3}), Mbps(1),
                                        0.0));
    ASSERT_TRUE(net.EstablishConnection(short_route, NodePath(topo, {0, 1}),
                                        Mbps(1), 0.0));
    net.RegisterBackup(short_route, NodePath(topo, {0, 3, 4, 1}));
    ASSERT_TRUE(net.EstablishConnection(long_route, NodePath(topo, {0, 1, 2}),
                                        Mbps(1), 0.0));
    net.RegisterBackup(long_route, NodePath(topo, {0, 3, 4, 5, 2}));
    const LinkId l01 = topo.FindLink(0, 1);
    const LinkId l03 = topo.FindLink(0, 3);
    ASSERT_LT(net.ledger().spare(l03) + net.ledger().free(l03),
              net.demand(l03).at(l01));

    std::vector<FailureImpact> per_link;
    FailureSweepStats stats;
    (void)EvaluateAllSingleLinkFailures(net, &per_link, &stats);
    EXPECT_GE(stats.contended, 1) << "swap " << swap;
    EXPECT_LT(stats.contended, stats.failed_sets) << "swap " << swap;
    EXPECT_EQ(per_link[static_cast<std::size_t>(l01)].attempts, 2);
    EXPECT_EQ(per_link[static_cast<std::size_t>(l01)].activated, 1);
    ExpectSweepMatchesPerLink(net, per_link);
    EXPECT_EQ(EvaluateLinkFailureDetailed(net, l01).activated,
              std::vector<ConnId>{1})
        << "swap " << swap;
  }
}

/// Forwards to `inner` and counts OnTopologyChanged calls into `*count`.
class CountingScheme final : public RoutingScheme {
 public:
  CountingScheme(std::unique_ptr<RoutingScheme> inner, int* count)
      : inner_(std::move(inner)), count_(count) {}

  std::string name() const override { return inner_->name(); }
  bool wants_backup() const override { return inner_->wants_backup(); }
  RouteSelection SelectRoutes(const DrtpNetwork& net,
                              const lsdb::LinkStateDb& db, NodeId src,
                              NodeId dst, Bandwidth bw) override {
    return inner_->SelectRoutes(net, db, src, dst, bw);
  }
  std::optional<routing::Path> SelectBackupFor(
      const DrtpNetwork& net, const lsdb::LinkStateDb& db,
      const routing::Path& primary, Bandwidth bw,
      std::span<const routing::Path> avoid) override {
    return inner_->SelectBackupFor(net, db, primary, bw, avoid);
  }
  void OnTopologyChanged(const DrtpNetwork& net) override {
    ++*count_;
    inner_->OnTopologyChanged(net);
  }

 private:
  std::unique_ptr<RoutingScheme> inner_;
  int* count_;
};

TEST(TopologyChange, SimulatorNotifiesTheSchemeOncePerFailure) {
  // Every failure and repair below is enacted (InjectLinkFailures never
  // fails a down link, and all repairs land before the horizon), so BF's
  // distance tables must be rebuilt exactly once per event — with or
  // without a reroute scheme.
  const net::Topology topo = sim::MakePaperTopology(3.0, 1);
  sim::TrafficConfig tc =
      sim::MakePaperTraffic(sim::TrafficPattern::kUniform, 0.4, 3);
  tc.duration = 2000.0;
  tc.lifetime_min = 300.0;
  tc.lifetime_max = 900.0;
  sim::Scenario scenario = sim::Scenario::Generate(topo, tc);
  sim::InjectLinkFailures(scenario, topo, 6, 500.0, 1200.0, 200.0, 5);
  for (const int num_backups : {1, 0}) {
    int count = 0;
    CountingScheme scheme(std::make_unique<BoundedFlooding>(topo), &count);
    sim::ExperimentConfig config;
    config.warmup = 800.0;
    config.num_backups = num_backups;
    const sim::RunMetrics m =
        sim::RunScenario(topo, scenario, scheme, config);
    EXPECT_EQ(m.failures_enacted, 6) << "backups " << num_backups;
    EXPECT_EQ(count, 12) << "backups " << num_backups;
  }
}

TEST(TopologyChange, DaemonNotifiesTheSchemeOncePerFailure) {
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 20, .avg_degree = 4.0, .seed = 3});
  const auto run = [&](const std::string& method, std::int64_t id,
                       svc::Engine& engine) {
    const svc::DecodedRequest req = svc::DecodeRequest(
        R"({"schema":"drtp.rpc/1","id":)" + std::to_string(id) +
        R"(,"method":")" + method + R"(","params":{"link":0}})");
    ASSERT_TRUE(req.ok) << req.error_detail;
    ASSERT_EQ(engine.ExecuteBatch({&req, 1}).size(), 1u);
  };
  for (const int num_backups : {1, 0}) {
    int count = 0;
    svc::EngineOptions options;
    options.scheme = "BF";
    options.num_backups = num_backups;
    svc::Engine engine(
        topo, options,
        std::make_unique<CountingScheme>(
            std::make_unique<BoundedFlooding>(topo), &count));
    run("fail-link", 1, engine);
    run("fail-link", 2, engine);  // already down: no change
    run("repair-link", 3, engine);
    EXPECT_EQ(engine.stats().link_fails, 1);
    EXPECT_EQ(engine.stats().link_repairs, 1);
    EXPECT_EQ(count, 2) << "backups " << num_backups;
  }
}

// Out-of-range risk-group ids reaching ApplySrlgFailure come from external
// input (scenario files replayed against the wrong topology), so they must
// surface as ParseError at the boundary, not as an internal CheckError.
TEST(SrlgFailure, OutOfRangeGroupIsParseError) {
  net::Topology tagged = net::MakeGrid(3, 3, Mbps(2));
  tagged.AssignSrlg(tagged.FindLink(0, 1), 0);  // num_srlgs() == 1
  DrtpNetwork net(tagged);
  EXPECT_THROW(ApplySrlgFailure(net, 1, 0.0, nullptr, nullptr), ParseError);
  EXPECT_THROW(ApplySrlgFailure(net, -1, 0.0, nullptr, nullptr), ParseError);
  EXPECT_NO_THROW(ApplySrlgFailure(net, 0, 0.0, nullptr, nullptr));
  net.CheckConsistency();

  DrtpNetwork untagged(net::MakeGrid(3, 3, Mbps(2)));
  EXPECT_THROW(ApplySrlgFailure(untagged, 0, 0.0, nullptr, nullptr),
               ParseError);
}

// Failing an already-down group again must be a deterministic no-op: every
// member link is already down, so no connection is touched.
TEST(SrlgFailure, DuplicateApplicationIsIdempotentNoOp) {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  topo.AssignSrlg(topo.FindLink(0, 1), 0);
  topo.AssignSrlg(topo.FindLink(3, 4), 0);
  DrtpNetwork net(topo);
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(net.topology(), {0, 1, 2}),
                                      Mbps(1), 0.0));
  net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 4, 5, 2}));

  const SwitchoverReport first =
      ApplySrlgFailure(net, 0, 1.0, nullptr, nullptr);
  // Primary and backup both crossed group 0: the connection is dropped
  // (the co-failed backup cannot activate).
  EXPECT_EQ(first.dropped, std::vector<ConnId>{1});

  const SwitchoverReport second =
      ApplySrlgFailure(net, 0, 2.0, nullptr, nullptr);
  EXPECT_TRUE(second.recovered.empty());
  EXPECT_TRUE(second.dropped.empty());
  EXPECT_TRUE(second.backups_lost.empty());
  EXPECT_TRUE(second.rerouted.empty());
  net.CheckConsistency();
}

// An SRLG failure is by definition the correlated failure of its member
// links; under a scarce spare pool (where order of switchover matters for
// who gets the spare) the report must match ApplyLinkSetFailure on the
// same member set exactly.
TEST(SrlgFailure, MatchesLinkSetFailureUnderScarceSpare) {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  const LinkId l14 = topo.FindLink(1, 4);
  const LinkId l25 = topo.FindLink(2, 5);
  topo.AssignSrlg(l14, 0);
  topo.AssignSrlg(l25, 0);

  const auto build = [&](DrtpNetwork& net) {
    // Conn 9 saturates 2->5 so conn 1's backup through it cannot hide
    // there; conn 1's primary crosses the group via 1->4.
    ASSERT_TRUE(net.EstablishConnection(
        9, NodePath(net.topology(), {2, 5}), Mbps(2), 0.0));
    ASSERT_TRUE(net.EstablishConnection(
        1, NodePath(net.topology(), {0, 1, 4, 7}), Mbps(1), 0.0));
    net.RegisterBackup(1, NodePath(net.topology(), {0, 3, 6, 7}));
  };

  DrtpNetwork via_srlg(topo);
  build(via_srlg);
  const SwitchoverReport a = ApplySrlgFailure(via_srlg, 0, 1.0, nullptr,
                                              nullptr);

  DrtpNetwork via_set(topo);
  build(via_set);
  const std::vector<LinkId> members{std::min(l14, l25), std::max(l14, l25)};
  const SwitchoverReport b =
      ApplyLinkSetFailure(via_set, members, 1.0, nullptr, nullptr);

  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.backups_lost, b.backups_lost);
  EXPECT_EQ(a.rerouted, b.rerouted);
  via_srlg.CheckConsistency();
  via_set.CheckConsistency();
}

}  // namespace
}  // namespace drtp::core
