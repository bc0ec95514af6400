// Tests for the per-router DR-connection manager: APLV maintenance from
// register/release packets and §5 spare-pool sizing/multiplexing.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "drtp/manager.h"
#include "net/generators.h"

namespace drtp::core {
namespace {

using routing::MakeLinkSet;

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : topo_(net::MakeGrid(3, 3, Mbps(10))),
        ledger_(topo_),
        links_(MakeLinkTable(topo_)),
        mgr_(0, topo_, ledger_, SpareMode::kMultiplexed, links_) {
    l01_ = topo_.FindLink(0, 1);
    l03_ = topo_.FindLink(0, 3);
  }

  BackupRegisterPacket Packet(ConnId id, std::vector<LinkId> lset,
                              Bandwidth bw = Mbps(1)) const {
    return BackupRegisterPacket{
        .conn_id = id, .bw = bw, .primary_lset = MakeLinkSet(std::move(lset))};
  }
  BackupReleasePacket Release(ConnId id, std::vector<LinkId> lset,
                              Bandwidth bw = Mbps(1)) const {
    return BackupReleasePacket{
        .conn_id = id, .bw = bw, .primary_lset = MakeLinkSet(std::move(lset))};
  }

  net::Topology topo_;
  net::BandwidthLedger ledger_;
  std::vector<ManagedLink> links_;
  DrConnectionManager mgr_;
  LinkId l01_ = kInvalidLink;
  LinkId l03_ = kInvalidLink;
};

TEST_F(ManagerTest, RegisterUpdatesAplvAndSpare) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_EQ(mgr_.aplv(l01_).count(5), 1);
  EXPECT_EQ(mgr_.aplv(l01_).count(6), 1);
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 1);
  // One backup, no conflicts -> one slot of spare.
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.BackupCount(l01_), 1);
}

TEST_F(ManagerTest, DisjointPrimariesShareOneSlot) {
  // The Fig. 1 story on L8: B1 and B2 multiplex because P1 and P2 are
  // disjoint — spare stays at one slot.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(2, {7, 8})));
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 1);
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.BackupCount(l01_), 2);
}

TEST_F(ManagerTest, OverlappingPrimariesNeedMoreSpare) {
  // The Fig. 1 story on L7: P1 and P3 share L13, so both backups can
  // activate at once — two slots required.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {8, 12, 13})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(3, {11, 13})));
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 2);
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
}

TEST_F(ManagerTest, DedicatedModeReservesPerBackup) {
  std::vector<ManagedLink> links = MakeLinkTable(topo_);
  DrConnectionManager dedicated(0, topo_, ledger_, SpareMode::kDedicated,
                                links);
  EXPECT_TRUE(dedicated.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_TRUE(dedicated.RegisterBackupHop(l01_, Packet(2, {7, 8})));
  // Disjoint primaries, but dedicated mode still reserves two slots.
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
}

TEST_F(ManagerTest, ReleaseShrinksSpareAndRestoresAplv) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {8, 13})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(3, {11, 13})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
  mgr_.ReleaseBackupHop(l01_, Release(1, {8, 13}));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.aplv(l01_).count(13), 1);
  mgr_.ReleaseBackupHop(l01_, Release(3, {11, 13}));
  EXPECT_EQ(ledger_.spare(l01_), 0);
  EXPECT_EQ(mgr_.aplv(l01_).L1(), 0);
}

TEST_F(ManagerTest, OverbookingAcceptedWhenNoFreeBandwidth) {
  // Fill the link with primary traffic so no spare can be reserved.
  ASSERT_TRUE(ledger_.ReservePrime(l01_, Mbps(10)));
  // §5 choice (2): the backup is still registered, multiplexed over
  // nothing, and reported as overbooked.
  EXPECT_FALSE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_TRUE(mgr_.IsOverbooked(l01_));
  EXPECT_EQ(mgr_.BackupCount(l01_), 1);
  // Free bandwidth reappears; reconcile grows the pool to target.
  ledger_.ReleasePrime(l01_, Mbps(10));
  EXPECT_TRUE(mgr_.ReconcileSpare(l01_));
  EXPECT_FALSE(mgr_.IsOverbooked(l01_));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
}

TEST_F(ManagerTest, PartialGrowthStaysOverbooked) {
  ASSERT_TRUE(ledger_.ReservePrime(l01_, Mbps(9)));  // 1 Mbps free
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 13})));
  // Second conflicting backup needs a second slot; only 0 free remains.
  EXPECT_FALSE(mgr_.RegisterBackupHop(l01_, Packet(2, {6, 13})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(2));
  EXPECT_TRUE(mgr_.IsOverbooked(l01_));
}

TEST_F(ManagerTest, LinksManagedIndependently) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l03_, Packet(1, {5})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(ledger_.spare(l03_), Mbps(1));
  mgr_.ReleaseBackupHop(l01_, Release(1, {5}));
  EXPECT_EQ(ledger_.spare(l01_), 0);
  EXPECT_EQ(ledger_.spare(l03_), Mbps(1));
}

TEST_F(ManagerTest, RejectsForeignLink) {
  const LinkId l12 = topo_.FindLink(1, 2);
  EXPECT_THROW(mgr_.RegisterBackupHop(l12, Packet(1, {5})), CheckError);
}

TEST_F(ManagerTest, RejectsDuplicateRegistration) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_THROW(mgr_.RegisterBackupHop(l01_, Packet(1, {5})), CheckError);
}

TEST_F(ManagerTest, RejectsMismatchedRelease) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(1, {6})), CheckError);
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(2, {5})), CheckError);
}

TEST_F(ManagerTest, HeterogeneousBandwidthSizesByWeightedDemand) {
  // The paper assumes identical bandwidths (§5); the manager generalizes:
  // the spare target is the worst-case *bandwidth* a single link failure
  // activates, not a slot count.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 13}, Mbps(1))));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(2, {6, 13}, Mbps(2))));
  // L13's failure would activate both: 1 + 2 Mbps.
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(3));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(3));
  mgr_.ReleaseBackupHop(l01_, Release(2, {6, 13}, Mbps(2)));
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(1));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
}

TEST_F(ManagerTest, ReleaseBandwidthMismatchThrows) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5}, Mbps(1))));
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(1, {5}, Mbps(2))),
               CheckError);
}

TEST_F(ManagerTest, RejectsEmptyLset) {
  EXPECT_THROW(mgr_.RegisterBackupHop(l01_, Packet(1, {})), CheckError);
}

// ---- DemandVector unit behaviour ------------------------------------------

TEST(DemandVector, AddRemoveTracksMax) {
  DemandVector d(8, 8);
  d.AddAll(routing::MakeLinkSet({1, 3}), Mbps(1));
  d.AddAll(routing::MakeLinkSet({3, 5}), Mbps(2));
  EXPECT_EQ(d.at(1), Mbps(1));
  EXPECT_EQ(d.at(3), Mbps(3));
  EXPECT_EQ(d.at(5), Mbps(2));
  EXPECT_EQ(d.Max(), Mbps(3));
  d.SubAll(routing::MakeLinkSet({3, 5}), Mbps(2));
  EXPECT_EQ(d.Max(), Mbps(1));
  d.SubAll(routing::MakeLinkSet({1, 3}), Mbps(1));
  EXPECT_EQ(d.Max(), 0);
}

TEST(DemandVector, RemovingTooMuchThrows) {
  DemandVector d(4, 4);
  d.AddAll(routing::MakeLinkSet({1}), Mbps(1));
  EXPECT_THROW(d.SubAll(routing::MakeLinkSet({1}), Mbps(2)), CheckError);
  EXPECT_THROW(d.SubAll(routing::MakeLinkSet({2}), Mbps(1)), CheckError);
}

/// A removal that fails its check must leave the vector untouched: the
/// demand at element 1 stays registered and the spare target (Max) does
/// not go stale, at both storage widths.
TEST(DemandVector, FailedRemoveLeavesStateUntouched) {
  for (const int links : {4, lsdb::kWideLinkThreshold + 10}) {
    DemandVector d(links, links);
    d.AddAll(routing::LinkSet{1}, 1000);
    const DemandVector snapshot = d;
    EXPECT_THROW(d.SubAll(routing::LinkSet{1, 2}, 1000), CheckError);
    EXPECT_EQ(d.at(1), 1000) << links;
    EXPECT_EQ(d.Max(), 1000) << links;
    EXPECT_EQ(d, snapshot) << links;
    d.SubAll(routing::LinkSet{1}, 1000);
    EXPECT_EQ(d, DemandVector(links, links)) << links;
  }
}

TEST(DemandVector, MatchesAplvUnderUniformBandwidth) {
  // With identical bandwidths the weighted rule reduces to the paper's
  // max(APLV) x bw.
  Rng rng(3);
  DemandVector d(16, 16);
  lsdb::Aplv aplv(16);
  for (int step = 0; step < 200; ++step) {
    std::vector<LinkId> raw;
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i)
      raw.push_back(static_cast<LinkId>(rng.Index(16)));
    const auto lset = routing::MakeLinkSet(std::move(raw));
    d.AddAll(lset, Mbps(1));
    aplv.AddPrimaryLset(lset);
    ASSERT_EQ(d.Max(), static_cast<Bandwidth>(aplv.Max()) * Mbps(1));
  }
}

/// Differential churn: random Add/Remove with heterogeneous bandwidths
/// (and LSETs that may repeat a link), checking Max() and every at(j)
/// against a brute-force recount after each step. Runs dense and, above
/// kWideLinkThreshold, in the sparse wide mode, where the picks cluster
/// on a few ids spread over the range so entries collide, empty out and
/// are erased.
void DemandVectorChurn(int num_links, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinkId> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(static_cast<LinkId>(
        rng.Index(static_cast<std::size_t>(num_links))));
  }
  DemandVector d(num_links, num_links);
  std::vector<std::pair<routing::LinkSet, Bandwidth>> registered;
  for (int step = 0; step < 400; ++step) {
    if (registered.empty() || rng.Bernoulli(0.55)) {
      routing::LinkSet lset;
      const int n = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < n; ++i) {
        if (!lset.empty() && rng.Bernoulli(0.2)) {
          lset.push_back(lset[rng.Index(lset.size())]);
        } else {
          lset.push_back(pool[rng.Index(pool.size())]);
        }
      }
      const Bandwidth bw = Kbps(100) * rng.UniformInt(1, 30);
      d.AddAll(lset, bw);
      registered.emplace_back(std::move(lset), bw);
    } else {
      const auto idx = rng.Index(registered.size());
      d.SubAll(registered[idx].first, registered[idx].second);
      registered.erase(registered.begin() +
                       static_cast<std::ptrdiff_t>(idx));
    }
    std::vector<Bandwidth> want(static_cast<std::size_t>(num_links), 0);
    for (const auto& [lset, bw] : registered) {
      for (LinkId j : lset) want[static_cast<std::size_t>(j)] += bw;
    }
    Bandwidth max = 0;
    for (LinkId j = 0; j < num_links; ++j) {
      ASSERT_EQ(d.at(j), want[static_cast<std::size_t>(j)])
          << "links " << num_links << " step " << step << " element " << j;
      max = std::max(max, want[static_cast<std::size_t>(j)]);
    }
    ASSERT_EQ(d.Max(), max) << "links " << num_links << " step " << step;
  }
}

TEST(DemandVectorProperty, DenseMatchesRecount) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) DemandVectorChurn(40, seed);
}

TEST(DemandVectorProperty, WideMatchesRecount) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    DemandVectorChurn(lsdb::kWideLinkThreshold + 300, seed);
  }
}

}  // namespace
}  // namespace drtp::core
