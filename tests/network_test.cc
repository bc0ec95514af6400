// Tests for the DrtpNetwork facade: the four DR-connection management
// steps, backup activation, link up/down, advertisement publishing, and a
// randomized consistency property over the whole bookkeeping machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "net/generators.h"
#include "routing/dijkstra.h"

namespace drtp::core {
namespace {

routing::Path NodePath(const net::Topology& topo,
                       std::initializer_list<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, std::vector<NodeId>(nodes));
  DRTP_CHECK(p.has_value());
  return *p;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(net::MakeGrid(3, 3, Mbps(10))) {}
  DrtpNetwork net_;
};

TEST_F(NetworkTest, EstablishReservesPrimaryBandwidth) {
  const auto p = NodePath(net_.topology(), {0, 1, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, p, Mbps(2), 0.0));
  for (LinkId l : p.links()) EXPECT_EQ(net_.ledger().prime(l), Mbps(2));
  EXPECT_EQ(net_.ActiveCount(), 1);
  EXPECT_EQ(net_.Find(1)->src, 0);
  EXPECT_EQ(net_.Find(1)->dst, 2);
  net_.CheckConsistency();
}

TEST_F(NetworkTest, EstablishRollsBackOnShortage) {
  const auto first = NodePath(net_.topology(), {1, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, first, Mbps(10), 0.0));
  // 0->1->2 fails on the second hop; the first hop must be rolled back.
  const auto p = NodePath(net_.topology(), {0, 1, 2});
  EXPECT_FALSE(net_.EstablishConnection(2, p, Mbps(1), 0.0));
  EXPECT_EQ(net_.ledger().prime(net_.topology().FindLink(0, 1)), 0);
  EXPECT_EQ(net_.ActiveCount(), 1);
}

TEST_F(NetworkTest, EstablishRefusesDownLink) {
  const auto p = NodePath(net_.topology(), {0, 1});
  net_.SetLinkDown(net_.topology().FindLink(0, 1));
  EXPECT_FALSE(net_.EstablishConnection(1, p, Mbps(1), 0.0));
  net_.SetLinkUp(net_.topology().FindLink(0, 1));
  EXPECT_TRUE(net_.EstablishConnection(1, p, Mbps(1), 0.0));
}

TEST_F(NetworkTest, DuplicateIdThrows) {
  const auto p = NodePath(net_.topology(), {0, 1});
  ASSERT_TRUE(net_.EstablishConnection(1, p, Mbps(1), 0.0));
  EXPECT_THROW((void)net_.EstablishConnection(1, p, Mbps(1), 0.0),
               CheckError);
}

TEST_F(NetworkTest, RegisterBackupWiresAplvsAlongRoute) {
  const auto primary = NodePath(net_.topology(), {0, 1, 2});
  const auto backup = NodePath(net_.topology(), {0, 3, 4, 5, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, primary, Mbps(1), 0.0));
  EXPECT_EQ(net_.RegisterBackup(1, backup), 0);  // plenty of bandwidth
  for (LinkId l : backup.links()) {
    EXPECT_EQ(net_.aplv(l).L1(), 2);  // two primary links registered
    EXPECT_EQ(net_.ledger().spare(l), Mbps(1));
  }
  const auto on_primary = net_.PrimaryConnsOn(net_.topology().FindLink(0, 1));
  const auto on_backup = net_.BackupConnsOn(net_.topology().FindLink(0, 3));
  EXPECT_EQ(std::vector<ConnId>(on_primary.begin(), on_primary.end()),
            std::vector<ConnId>{1});
  EXPECT_EQ(std::vector<ConnId>(on_backup.begin(), on_backup.end()),
            std::vector<ConnId>{1});
  net_.CheckConsistency();
}

TEST_F(NetworkTest, ReleaseConnectionRestoresEverything) {
  const auto primary = NodePath(net_.topology(), {0, 1, 2});
  const auto backup = NodePath(net_.topology(), {0, 3, 4, 5, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, primary, Mbps(1), 0.0));
  net_.RegisterBackup(1, backup);
  net_.ReleaseConnection(1);
  EXPECT_EQ(net_.ActiveCount(), 0);
  EXPECT_EQ(net_.ledger().TotalPrime(), 0);
  EXPECT_EQ(net_.ledger().TotalSpare(), 0);
  for (LinkId l = 0; l < net_.topology().num_links(); ++l) {
    EXPECT_EQ(net_.aplv(l).L1(), 0);
  }
  net_.CheckConsistency();
}

TEST_F(NetworkTest, ActivateBackupPromotesRoute) {
  const auto primary = NodePath(net_.topology(), {0, 1, 2});
  const auto backup = NodePath(net_.topology(), {0, 3, 4, 5, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, primary, Mbps(1), 0.0));
  net_.RegisterBackup(1, backup);
  ASSERT_TRUE(net_.ActivateBackup(1, 5.0));
  const DrConnection* conn = net_.Find(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->primary, backup);
  EXPECT_FALSE(conn->has_backup());
  EXPECT_EQ(conn->failovers, 1);
  // Old primary bandwidth released; new route carries prime bandwidth.
  EXPECT_EQ(net_.ledger().prime(net_.topology().FindLink(0, 1)), 0);
  EXPECT_EQ(net_.ledger().prime(net_.topology().FindLink(0, 3)), Mbps(1));
  EXPECT_EQ(net_.ledger().TotalSpare(), 0);  // backup's spare retired
  net_.CheckConsistency();
}

TEST_F(NetworkTest, ActivationRaidsSparePoolWhenFreeExhausted) {
  // Saturate link 0->1 with primaries of other connections, leaving only
  // the spare pool to fund the activation.
  net::Topology topo = net::MakeGrid(3, 3, Mbps(3));
  DrtpNetwork net(std::move(topo));
  const auto primary = NodePath(net.topology(), {0, 3, 6});
  const auto backup = NodePath(net.topology(), {0, 1, 4, 7, 6});
  ASSERT_TRUE(net.EstablishConnection(1, primary, Mbps(1), 0.0));
  net.RegisterBackup(1, backup);  // spare of 1 Mbps sits on 0->1 etc.
  // Exhaust the free pool of 0->1 (3 total - 1 spare = 2 free).
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  ASSERT_TRUE(net.EstablishConnection(3, NodePath(net.topology(), {0, 1}),
                                      Mbps(1), 0.0));
  EXPECT_EQ(net.ledger().free(net.topology().FindLink(0, 1)), 0);
  // Activation must still succeed by consuming the spare slot.
  ASSERT_TRUE(net.ActivateBackup(1, 1.0));
  EXPECT_EQ(net.ledger().prime(net.topology().FindLink(0, 1)), Mbps(3));
  net.CheckConsistency();
}

TEST_F(NetworkTest, PublishReflectsStateAndDownLinks) {
  lsdb::LinkStateDb db(net_.topology().num_links(),
                       net_.topology().num_links());
  const auto primary = NodePath(net_.topology(), {0, 1, 2});
  const auto backup = NodePath(net_.topology(), {0, 3, 4, 5, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, primary, Mbps(4), 0.0));
  net_.RegisterBackup(1, backup);
  net_.SetLinkDown(net_.topology().FindLink(6, 7));
  net_.PublishTo(db, 2.0);
  EXPECT_EQ(db.last_refresh(), 2.0);

  const LinkId on_primary = net_.topology().FindLink(0, 1);
  EXPECT_EQ(db.record(on_primary).free_for_primary, Mbps(6));
  const LinkId on_backup = net_.topology().FindLink(0, 3);
  EXPECT_EQ(db.record(on_backup).aplv_l1, 2);
  EXPECT_TRUE(db.record(on_backup).cv.Test(on_primary));
  // available-for-backup counts spare + free.
  EXPECT_EQ(db.record(on_backup).available_for_backup, Mbps(10));
  EXPECT_EQ(db.record(on_backup).free_for_primary, Mbps(6));
  const LinkId down = net_.topology().FindLink(6, 7);
  EXPECT_EQ(db.record(down).free_for_primary, 0);
  EXPECT_EQ(db.record(down).available_for_backup, 0);
}

// Plants a sentinel in every record of `db` outside `touched`, publishes
// incrementally, and expects the sentinels to survive (the publish
// rewrote nothing it did not have to) while the touched records equal a
// full rewrite. Leaves `db` fully republished.
void ExpectPublishRewritesExactly(const DrtpNetwork& net,
                                  lsdb::LinkStateDb& db,
                                  const std::vector<LinkId>& touched) {
  constexpr std::int64_t kSentinel = -424242;
  const auto is_touched = [&](LinkId l) {
    return std::find(touched.begin(), touched.end(), l) != touched.end();
  };
  const int n = net.topology().num_links();
  for (LinkId l = 0; l < n; ++l) {
    if (!is_touched(l)) db.record(l).aplv_l1 = kSentinel;
  }
  net.PublishTo(db, 1.0);
  lsdb::LinkStateDb full(n, n);
  net.PublishFullTo(full, 1.0);
  for (LinkId l = 0; l < n; ++l) {
    if (is_touched(l)) {
      EXPECT_EQ(db.record(l), full.record(l)) << "touched link " << l;
    } else {
      EXPECT_EQ(db.record(l).aplv_l1, kSentinel)
          << "untouched link " << l << " was rewritten";
    }
  }
  net.PublishFullTo(db, 1.0);
}

TEST_F(NetworkTest, IncrementalPublishRewritesOnlyChangedLinks) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds assert in PublishTo that the incremental "
                  "result equals a full rewrite, which a planted sentinel "
                  "breaks by design";
#endif
  // 3x3 grid of 3 Mbps links. Connections 1 and 4 have primaries that
  // share 3->6 and backups that share 0->1, where primaries 2 and 3
  // leave no free bandwidth: 0->1 stays overbooked, so every release
  // makes ReconcileOverbooked visit it.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(3)));
  const net::Topology& topo = net.topology();
  const auto link = [&](NodeId a, NodeId b) { return topo.FindLink(a, b); };
  const auto links_of = [&](const routing::Path& p) {
    return std::vector<LinkId>(p.links().begin(), p.links().end());
  };
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(topo, {0, 3, 6}), Mbps(1),
                                      0.0));
  net.RegisterBackup(1, NodePath(topo, {0, 1, 4, 7, 6}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(topo, {0, 1}), Mbps(1),
                                      0.0));
  ASSERT_TRUE(net.EstablishConnection(3, NodePath(topo, {0, 1}), Mbps(1),
                                      0.0));
  ASSERT_TRUE(net.EstablishConnection(4, NodePath(topo, {3, 6}), Mbps(1),
                                      0.0));
  const routing::Path backup4 = NodePath(topo, {3, 0, 1, 4, 7, 6});
  net.RegisterBackup(4, backup4);
  ASSERT_TRUE(net.EstablishConnection(5, NodePath(topo, {5, 8}), Mbps(1),
                                      0.0));
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{link(0, 1)});
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  net.PublishTo(db, 0.0);

  // Releasing an unrelated primary touches its link only; the visit to
  // the still-overbooked 0->1 changes nothing there or on 0's other
  // out-links.
  net.ReleaseConnection(5);
  ExpectPublishRewritesExactly(net, db, {link(5, 8)});
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{link(0, 1)});

  // A backup release and a registration touch exactly the backup's
  // links, not the other out-links of the routers along it.
  net.ReleaseBackupAt(4, 0);
  ExpectPublishRewritesExactly(net, db, links_of(backup4));
  net.RegisterBackup(4, backup4);
  ExpectPublishRewritesExactly(net, db, links_of(backup4));
  net.CheckConsistency();
}

TEST_F(NetworkTest, ReleasesReconcileExactlyTheLinksTheyTouch) {
  // 3x3 grid of 3 Mbps links. The backups of connections 1, 4 and 7 share
  // 0->1, where primaries 2 and 3 leave 1 Mbps for a 2 Mbps target
  // (demand 2 from failing 0->3 and 2 from failing 3->6), so 0->1 is
  // listed overbooked.
  DrtpNetwork net(net::MakeGrid(3, 3, Mbps(3)));
  const net::Topology& topo = net.topology();
  const auto link = [&](NodeId a, NodeId b) { return topo.FindLink(a, b); };
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(topo, {0, 3, 6}), Mbps(1),
                                      0.0));
  net.RegisterBackup(1, NodePath(topo, {0, 1, 4, 7, 6}));
  ASSERT_TRUE(net.EstablishConnection(2, NodePath(topo, {0, 1}), Mbps(1),
                                      0.0));
  ASSERT_TRUE(net.EstablishConnection(3, NodePath(topo, {0, 1}), Mbps(1),
                                      0.0));
  ASSERT_TRUE(net.EstablishConnection(4, NodePath(topo, {3, 6}), Mbps(1),
                                      0.0));
  net.RegisterBackup(4, NodePath(topo, {3, 0, 1, 4, 7, 6}));
  ASSERT_TRUE(net.EstablishConnection(5, NodePath(topo, {5, 8}), Mbps(1),
                                      0.0));
  ASSERT_TRUE(net.EstablishConnection(7, NodePath(topo, {0, 3}), Mbps(1),
                                      0.0));
  net.RegisterBackup(7, NodePath(topo, {0, 1, 4, 3}));
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{link(0, 1)});
  net.CheckConsistency();

  // An unrelated release frees nothing on 0->1: it stays listed.
  net.ReleaseConnection(5);
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{link(0, 1)});
  net.CheckConsistency();

  // Releasing a primary on 0->1 grows its pool to target and unlists it.
  net.ReleaseConnection(2);
  EXPECT_EQ(net.ledger().spare(link(0, 1)), Mbps(2));
  EXPECT_TRUE(net.OverbookedLinks().empty());
  net.CheckConsistency();

  // Activating 4's backup with 7->6 down: releasing it leaves 0->1's
  // target at 2 Mbps (connection 7 still demands it there), so the
  // promotion raids the pool on 0->1 and lists it, then fails at 7->6
  // and rolls back. The rolled-back bandwidth must refill that pool.
  net.SetLinkDown(link(7, 6));
  EXPECT_FALSE(net.ActivateBackup(4, 1.0));
  EXPECT_EQ(net.Find(4), nullptr);
  EXPECT_EQ(net.ledger().spare(link(0, 1)), Mbps(2));
  EXPECT_TRUE(net.OverbookedLinks().empty());
  net.CheckConsistency();
}

TEST_F(NetworkTest, DuplexFailureTakesBothDirections) {
  DrtpNetwork net(net::MakeGrid(2, 2, Mbps(1)),
                  NetworkConfig{.spare_mode = SpareMode::kMultiplexed,
                                .duplex_failures = true});
  const LinkId ab = net.topology().FindLink(0, 1);
  const LinkId ba = net.topology().FindLink(1, 0);
  net.SetLinkDown(ab);
  EXPECT_FALSE(net.IsLinkUp(ab));
  EXPECT_FALSE(net.IsLinkUp(ba));
  net.SetLinkUp(ab);
  EXPECT_TRUE(net.IsLinkUp(ba));
}

TEST_F(NetworkTest, HeterogeneousBandwidthEndToEnd) {
  // Two connections of different bandwidth share backup links; the spare
  // pools size by weighted demand and a failure activates both.
  const auto p1 = NodePath(net_.topology(), {0, 1});
  const auto p2 = NodePath(net_.topology(), {0, 1, 2});
  ASSERT_TRUE(net_.EstablishConnection(1, p1, Mbps(1), 0.0));
  net_.RegisterBackup(1, NodePath(net_.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(net_.EstablishConnection(2, p2, Mbps(2), 0.0));
  net_.RegisterBackup(2, NodePath(net_.topology(), {0, 3, 4, 5, 2}));
  // Both primaries cross 0->1: failing it needs 1 + 2 Mbps on 0->3.
  const LinkId l03 = net_.topology().FindLink(0, 3);
  EXPECT_EQ(net_.ledger().spare(l03), Mbps(3));
  net_.CheckConsistency();
  const auto impact =
      core::EvaluateLinkFailure(net_, net_.topology().FindLink(0, 1));
  EXPECT_EQ(impact.attempts, 2);
  EXPECT_EQ(impact.activated, 2);
  net_.ReleaseConnection(2);
  EXPECT_EQ(net_.ledger().spare(l03), Mbps(1));
  net_.CheckConsistency();
}

/// Property: a random churn of establish/register/release/activate keeps
/// every invariant (APLV == rebuild, ledger pools sane, spare targets met
/// or justified) and drains to zero.
class NetworkChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NetworkChurnProperty, InvariantsUnderChurn) {
  Rng rng(GetParam());
  net::Topology topo = net::MakeWaxman(net::WaxmanConfig{
      .nodes = 20, .avg_degree = 3.0, .link_capacity = Mbps(5),
      .seed = GetParam() * 13 + 1});
  DrtpNetwork net(topo);
  std::vector<ConnId> active;
  ConnId next_id = 0;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 3));
    if (op <= 1) {  // establish + maybe backup
      const NodeId src = static_cast<NodeId>(rng.Index(20));
      NodeId dst = static_cast<NodeId>(rng.Index(20));
      if (src == dst) continue;
      const auto primary =
          routing::MinHopPath(net.topology(), src, dst, [&](LinkId l) {
            return net.ledger().free(l) >= Mbps(1);
          });
      if (!primary) continue;
      const ConnId id = next_id++;
      if (!net.EstablishConnection(id, *primary, Mbps(1), step)) continue;
      active.push_back(id);
      if (rng.Bernoulli(0.8)) {
        const auto lset = primary->ToLinkSet();
        const auto backup =
            routing::CheapestPath(net.topology(), src, dst, [&](LinkId l) {
              return routing::SetContains(lset, l) ? 100.0 : 1.0;
            });
        if (backup) net.RegisterBackup(id, *backup);
      }
    } else if (op == 2 && !active.empty()) {  // release
      const auto idx = rng.Index(active.size());
      net.ReleaseConnection(active[idx]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 3 && !active.empty()) {  // activate a backup
      const auto idx = rng.Index(active.size());
      const ConnId id = active[idx];
      if (net.Find(id)->has_backup()) {
        if (!net.ActivateBackup(id, step)) {
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
    }
    if (step % 20 == 0) net.CheckConsistency();
  }
  net.CheckConsistency();
  for (ConnId id : active) net.ReleaseConnection(id);
  EXPECT_EQ(net.ledger().TotalPrime(), 0);
  EXPECT_EQ(net.ledger().TotalSpare(), 0);
  EXPECT_EQ(net.ActiveCount(), 0);
  net.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace drtp::core
