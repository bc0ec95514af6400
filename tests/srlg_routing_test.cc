// Tests for the SRLG-aware routing layer: the per-SRLG APLV aggregate
// (lsdb::SrlgVector), the pruned active/protection pair search, the
// SRLG-aware P-LSR/D-LSR variants (including their bit-identical
// degeneration to the base schemes on untagged topologies), the auditor's
// backup_shares_srlg invariant, and scenario boundary validation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "drtp/dlsr.h"
#include "drtp/network.h"
#include "drtp/plsr.h"
#include "drtp/scheme.h"
#include "drtp/srlg_schemes.h"
#include "fault/auditor.h"
#include "lsdb/srlg_vector.h"
#include "net/generators.h"
#include "routing/srlg_disjoint.h"
#include "sim/paper.h"
#include "sim/scenario.h"

namespace drtp {
namespace {

routing::Path NodePath(const net::Topology& topo, std::vector<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, nodes);
  DRTP_CHECK(p.has_value());
  return *p;
}

// ---- lsdb::SrlgVector -----------------------------------------------------

SrlgId DemoGroups(LinkId j) { return j < 6 ? j % 3 : kInvalidSrlg; }

TEST(SrlgVector, AddRemoveAndSumOver) {
  lsdb::SrlgVector v(4, 100);
  const routing::LinkSet lset{0, 1, 2, 3, 7};
  v.AddLset(lset, DemoGroups);
  EXPECT_EQ(v.at(0), 2);  // links 0 and 3
  EXPECT_EQ(v.at(1), 1);
  EXPECT_EQ(v.at(2), 1);
  EXPECT_EQ(v.at(3), 0);
  EXPECT_EQ(v.total(), 4);
  const std::vector<SrlgId> groups{0, 2};
  EXPECT_EQ(v.SumOver(groups), 3);
  const std::vector<SrlgId> none{3};
  EXPECT_EQ(v.SumOver(none), 0);
  v.RemoveLset(lset, DemoGroups);
  EXPECT_EQ(v.total(), 0);
  EXPECT_EQ(v, lsdb::SrlgVector(4, 100));  // back to pristine
}

TEST(SrlgVector, WideAndDenseStorageAgree) {
  // Same logical content through the dense (paper-scale) and sparse
  // (above kWideLinkThreshold) representations.
  lsdb::SrlgVector dense(8, 100);
  lsdb::SrlgVector wide(8, lsdb::kWideLinkThreshold + 10);
  const routing::LinkSet a{0, 1, 2, 5};
  const routing::LinkSet b{0, 3, 4};
  for (auto* v : {&dense, &wide}) {
    v->AddLset(a, DemoGroups);
    v->AddLset(b, DemoGroups);
    v->RemoveLset(a, DemoGroups);
  }
  EXPECT_EQ(dense.total(), wide.total());
  for (SrlgId g = 0; g < 8; ++g) {
    EXPECT_EQ(dense.at(g), wide.at(g)) << "group " << g;
  }
  const std::vector<SrlgId> probe{0, 1, 2, 6};
  EXPECT_EQ(dense.SumOver(probe), wide.SumOver(probe));
  EXPECT_EQ(dense.AdvertBytes(), wide.AdvertBytes());
}

/// A failed RemoveLset leaves the vector untouched at both storage widths:
/// the groups decremented before the failing one are restored.
TEST(SrlgVector, FailedRemoveLeavesStateUntouched) {
  for (const int links : {100, lsdb::kWideLinkThreshold + 10}) {
    lsdb::SrlgVector v(4, links);
    v.AddLset(routing::LinkSet{0, 1}, DemoGroups);  // groups 0 and 1
    const lsdb::SrlgVector snapshot = v;
    // Group 2 (link 2) holds nothing; group 1 precedes it.
    EXPECT_THROW(v.RemoveLset(routing::LinkSet{1, 2}, DemoGroups),
                 CheckError);
    EXPECT_EQ(v, snapshot) << links;
    // Links 0 and 3 both map to group 0, which holds one incidence.
    EXPECT_THROW(v.RemoveLset(routing::LinkSet{0, 1, 3}, DemoGroups),
                 CheckError);
    EXPECT_EQ(v, snapshot) << links;
    v.RemoveLset(routing::LinkSet{0, 1}, DemoGroups);
    EXPECT_EQ(v, lsdb::SrlgVector(4, links)) << links;
  }
}

TEST(SrlgVector, DefaultIsEmptyAndEqual) {
  EXPECT_EQ(lsdb::SrlgVector(), lsdb::SrlgVector());
  EXPECT_EQ(lsdb::SrlgVector().num_srlgs(), 0);
  EXPECT_EQ(lsdb::SrlgVector().AdvertBytes(), 4);
}

// ---- routing::FindSrlgDisjointPair ---------------------------------------

/// 0 ==duplex== {1, 2, 4} ==duplex== 3, with 0->1 and 0->2 in risk
/// group 0 (say, two fibers in one conduit out of node 0).
net::Topology ThreeWayDiamond() {
  net::Topology t;
  for (int i = 0; i < 5; ++i) t.AddNode();
  const auto [l01, l10] = t.AddDuplexLink(0, 1, Mbps(10));
  t.AddDuplexLink(1, 3, Mbps(10));
  const auto [l02, l20] = t.AddDuplexLink(0, 2, Mbps(10));
  t.AddDuplexLink(2, 3, Mbps(10));
  t.AddDuplexLink(0, 4, Mbps(10));
  t.AddDuplexLink(4, 3, Mbps(10));
  (void)l10;
  (void)l20;
  t.AssignSrlg(l01, 0);
  t.AssignSrlg(l02, 0);
  return t;
}

bool SrlgDisjointPaths(const net::Topology& topo, const routing::Path& a,
                       const routing::Path& b) {
  for (const LinkId la : a.links()) {
    const SrlgId g = topo.srlg(la);
    if (g == kInvalidSrlg) continue;
    for (const LinkId lb : b.links()) {
      if (topo.srlg(lb) == g) return false;
    }
  }
  return true;
}

TEST(SrlgDisjointPair, AvoidsSharedGroupAndProvesOptimality) {
  const net::Topology topo = ThreeWayDiamond();
  const auto unit = [](LinkId) { return 1.0; };
  const auto result =
      routing::FindSrlgDisjointPair(topo, 0, 3, unit, unit);
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.active->hops(), 2);
  EXPECT_EQ(result.protection->hops(), 2);
  EXPECT_DOUBLE_EQ(result.total_cost, 4.0);
  EXPECT_TRUE(result.active->LinkDisjoint(*result.protection));
  // The two group-0 branches cannot both be used; one side must take the
  // untagged 0-4-3 detour.
  EXPECT_TRUE(SrlgDisjointPaths(topo, *result.active, *result.protection));
}

TEST(SrlgDisjointPair, ReportsWhenNoPairExists) {
  // Triangle with both 0->1 and 2->1 in group 0: each of the only two
  // simple 0->1 routes uses a group-0 link, so no pair exists and the
  // exhausted enumeration proves it.
  net::Topology t;
  for (int i = 0; i < 3; ++i) t.AddNode();
  const auto [l01, l10] = t.AddDuplexLink(0, 1, Mbps(10));
  t.AddDuplexLink(0, 2, Mbps(10));
  const auto [l21, l12] = t.AddDuplexLink(2, 1, Mbps(10));
  (void)l10;
  (void)l12;
  t.AssignSrlg(l01, 0);
  t.AssignSrlg(l21, 0);
  const auto unit = [](LinkId) { return 1.0; };
  const auto result = routing::FindSrlgDisjointPair(t, 0, 1, unit, unit);
  EXPECT_FALSE(result.found());
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.candidates_tried, 2);
}

TEST(SrlgDisjointPair, UntaggedTopologyGivesLinkDisjointPair) {
  const net::Topology topo = net::MakeRing(6, Mbps(10));
  const auto unit = [](LinkId) { return 1.0; };
  const auto result = routing::FindSrlgDisjointPair(topo, 0, 3, unit, unit);
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(result.proven_optimal);
  // The only link-disjoint pair on a ring: the two directions around it.
  EXPECT_EQ(result.active->hops() + result.protection->hops(), 6);
  EXPECT_TRUE(result.active->LinkDisjoint(*result.protection));
}

// ---- SRLG-aware schemes ---------------------------------------------------

/// Fixture owning a network + instantly-refreshed LSDB (same shape as the
/// schemes_test one; SRLGs must be assigned before construction).
class SchemeFixture {
 public:
  explicit SchemeFixture(net::Topology topo)
      : net_(std::move(topo)),
        db_(net_.topology().num_links(), net_.topology().num_links()) {
    Refresh();
  }

  void Refresh() { net_.PublishTo(db_, 0.0); }

  core::RouteSelection Admit(core::RoutingScheme& scheme, ConnId id,
                             NodeId src, NodeId dst, Bandwidth bw = Mbps(1)) {
    core::RouteSelection sel = scheme.SelectRoutes(net_, db_, src, dst, bw);
    if (sel.primary.has_value()) {
      DRTP_CHECK(net_.EstablishConnection(id, *sel.primary, bw, 0.0));
      if (scheme.wants_backup() && sel.backup.has_value()) {
        net_.RegisterBackup(id, *sel.backup);
      }
      Refresh();
    }
    return sel;
  }

  core::DrtpNetwork net_;
  lsdb::LinkStateDb db_;
};

/// 3x3 grid with the straight 0->1 primary hop and the 3->4 detour hop in
/// one risk group: the base schemes' preferred backup 0-3-4-5-2 shares
/// fate with the primary 0-1-2.
net::Topology TaggedGrid() {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(10));
  topo.AssignSrlg(topo.FindLink(0, 1), 0);
  topo.AssignSrlg(topo.FindLink(3, 4), 0);
  return topo;
}

TEST(SrlgLsrScheme, HardAndSoftAvoidSharedGroupWhenDetourExists) {
  for (const bool deterministic : {false, true}) {
    for (const core::SrlgMode mode :
         {core::SrlgMode::kSoft, core::SrlgMode::kHard}) {
      SchemeFixture f(TaggedGrid());
      core::SrlgLsr scheme(deterministic, mode);
      const auto sel = f.Admit(scheme, 1, 0, 2);
      ASSERT_TRUE(sel.primary.has_value());
      ASSERT_TRUE(sel.backup.has_value()) << scheme.name();
      EXPECT_TRUE(sel.backup->LinkDisjoint(*sel.primary)) << scheme.name();
      EXPECT_TRUE(SrlgDisjointPaths(f.net_.topology(), *sel.primary,
                                    *sel.backup))
          << scheme.name() << " backup shares a risk group";
    }
  }
}

TEST(SrlgLsrScheme, HardRefusesWhenEveryBackupSharesGroup) {
  // Ring of 6: primary 0-1-2, only counter-rotating backup 0-5-4-3-2.
  // Tagging 0->1 (primary) and 5->4 (backup) into one group leaves hard
  // mode nothing to return; soft mode still takes the penalized route;
  // the base scheme never notices.
  net::Topology topo = net::MakeRing(6, Mbps(10));
  topo.AssignSrlg(topo.FindLink(0, 1), 0);
  topo.AssignSrlg(topo.FindLink(5, 4), 0);
  SchemeFixture f(topo);

  core::Dlsr base;
  const auto base_sel = base.SelectRoutes(f.net_, f.db_, 0, 2, Mbps(1));
  ASSERT_TRUE(base_sel.backup.has_value());
  EXPECT_TRUE(base_sel.backup->Contains(f.net_.topology().FindLink(5, 4)));

  core::SrlgLsr soft(/*deterministic=*/true, core::SrlgMode::kSoft);
  const auto soft_sel = soft.SelectRoutes(f.net_, f.db_, 0, 2, Mbps(1));
  ASSERT_TRUE(soft_sel.backup.has_value());
  EXPECT_EQ(*soft_sel.backup, *base_sel.backup);

  core::SrlgLsr hard(/*deterministic=*/true, core::SrlgMode::kHard);
  const auto hard_sel = hard.SelectRoutes(f.net_, f.db_, 0, 2, Mbps(1));
  ASSERT_TRUE(hard_sel.primary.has_value());
  EXPECT_FALSE(hard_sel.backup.has_value());
}

TEST(SrlgLsrScheme, BitIdenticalToBaseOnUntaggedTopology) {
  // On a zero-SRLG topology every variant must produce the exact routes
  // of its base scheme — same primaries, same backups, request for
  // request — because the SRLG terms vanish rather than perturb.
  const net::Topology topo = net::MakeWaxman(
      {.nodes = 30, .avg_degree = 4.0, .link_capacity = Mbps(20), .seed = 5});
  for (const bool deterministic : {false, true}) {
    SchemeFixture f(topo);
    std::unique_ptr<core::RoutingScheme> base;
    if (deterministic) {
      base = std::make_unique<core::Dlsr>();
    } else {
      base = std::make_unique<core::Plsr>();
    }
    core::SrlgLsr soft(deterministic, core::SrlgMode::kSoft);
    core::SrlgLsr hard(deterministic, core::SrlgMode::kHard);
    const int n = topo.num_nodes();
    ConnId id = 1;
    for (int i = 0; i < n; ++i) {
      const NodeId src = i;
      const NodeId dst = (i * 7 + 3) % n;
      if (src == dst) continue;
      const auto want = base->SelectRoutes(f.net_, f.db_, src, dst, Mbps(1));
      for (core::RoutingScheme* variant :
           {static_cast<core::RoutingScheme*>(&soft),
            static_cast<core::RoutingScheme*>(&hard)}) {
        const auto got = variant->SelectRoutes(f.net_, f.db_, src, dst,
                                               Mbps(1));
        EXPECT_EQ(got.primary, want.primary) << variant->name();
        EXPECT_EQ(got.backup, want.backup) << variant->name();
      }
      // Evolve state through the base scheme so later requests see a
      // loaded network.
      if (want.primary.has_value()) {
        ASSERT_TRUE(f.net_.EstablishConnection(id, *want.primary, Mbps(1),
                                               0.0));
        if (want.backup.has_value()) {
          f.net_.RegisterBackup(id, *want.backup);
        }
        f.Refresh();
        ++id;
      }
    }
  }
}

TEST(SrlgPairScheme, AdmitsSrlgDisjointPairOnTaggedGrid) {
  SchemeFixture f(TaggedGrid());
  core::SrlgPairScheme scheme;
  EXPECT_TRUE(scheme.requires_srlg_disjoint_backup());
  const auto sel = f.Admit(scheme, 1, 0, 2);
  ASSERT_TRUE(sel.primary.has_value());
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_TRUE(sel.primary->LinkDisjoint(*sel.backup));
  EXPECT_TRUE(
      SrlgDisjointPaths(f.net_.topology(), *sel.primary, *sel.backup));
  // The armed auditor agrees the admitted state keeps the promise.
  fault::AuditorOptions ao;
  ao.require_srlg_disjoint = true;
  fault::Auditor auditor(ao);
  auditor.Check(f.net_, 0.0, "final", nullptr);
  EXPECT_TRUE(auditor.ok());
}

// ---- auditor invariant ----------------------------------------------------

TEST(Auditor, FlagsBackupSharingSrlgOnlyWhenArmed) {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(10));
  topo.AssignSrlg(topo.FindLink(0, 1), 0);
  topo.AssignSrlg(topo.FindLink(3, 4), 0);
  core::DrtpNetwork net(topo);
  ASSERT_TRUE(net.EstablishConnection(1, NodePath(topo, {0, 1, 2}), Mbps(1),
                                      0.0));
  net.RegisterBackup(1, NodePath(topo, {0, 3, 4, 5, 2}));  // shares group 0

  // Unarmed: sharing a group is a scheme tradeoff, not a violation (and
  // the per-SRLG aggregates must already reconcile bit-exactly).
  fault::Auditor relaxed;
  relaxed.Check(net, 0.0, "final", nullptr);
  EXPECT_TRUE(relaxed.ok());

  fault::AuditorOptions ao;
  ao.require_srlg_disjoint = true;
  fault::Auditor strict(ao);
  strict.Check(net, 0.0, "final", nullptr);
  EXPECT_FALSE(strict.ok());
  ASSERT_FALSE(strict.violations().empty());
  EXPECT_EQ(strict.violations()[0].invariant, "conn.backup_shares_srlg");
  EXPECT_EQ(strict.violations()[0].conn, 1);
}

// ---- scenario boundary validation ----------------------------------------

TEST(ScenarioValidate, RejectsIdsBeyondTheTopology) {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(10));  // 9 nodes, 24 links
  topo.AssignSrlg(topo.FindLink(0, 1), 0);             // exactly 1 group
  sim::Scenario sc;
  sc.traffic.duration = 100.0;

  sim::ScenarioEvent srlg_fail;
  srlg_fail.type = sim::ScenarioEvent::Type::kSrlgFail;
  srlg_fail.time = 1.0;
  srlg_fail.srlg = 3;  // only group 0 exists
  sc.events = {srlg_fail};
  EXPECT_THROW(sc.Validate(topo), ParseError);
  sc.events[0].srlg = 0;
  EXPECT_NO_THROW(sc.Validate(topo));

  sim::ScenarioEvent node_fail;
  node_fail.type = sim::ScenarioEvent::Type::kNodeFail;
  node_fail.time = 1.0;
  node_fail.node = 9;
  sc.events = {node_fail};
  EXPECT_THROW(sc.Validate(topo), ParseError);

  sim::ScenarioEvent link_fail;
  link_fail.type = sim::ScenarioEvent::Type::kLinkFail;
  link_fail.time = 1.0;
  link_fail.link = topo.num_links();
  sc.events = {link_fail};
  EXPECT_THROW(sc.Validate(topo), ParseError);

  sim::ScenarioEvent req;
  req.type = sim::ScenarioEvent::Type::kRequest;
  req.time = 1.0;
  req.conn = 1;
  req.src = 0;
  req.dst = 42;
  req.bw = Mbps(1);
  sc.events = {req};
  EXPECT_THROW(sc.Validate(topo), ParseError);
}

// ---- registry -------------------------------------------------------------

TEST(SchemeRegistry, ResolvesSrlgLabels) {
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(10));
  const struct {
    const char* label;
    bool requires_disjoint;
  } cases[] = {
      {"D-LSR", false},           {"P-LSR", false},
      {"BF", false},              {"NoBackup", false},
      {"RandomBackup", false},    {"SD-Backup", false},
      {"P-LSR-SRLG-SOFT", false}, {"P-LSR-SRLG-HARD", true},
      {"D-LSR-SRLG-SOFT", false}, {"D-LSR-SRLG-HARD", true},
      {"SRLG-PAIR", true},
  };
  for (const auto& c : cases) {
    const auto scheme = sim::MakeScheme(c.label, topo, 1);
    ASSERT_NE(scheme, nullptr);
    // name() is the label: trace records are stamped with it.
    EXPECT_EQ(scheme->name(), c.label);
    EXPECT_EQ(scheme->requires_srlg_disjoint_backup(), c.requires_disjoint)
        << c.label;
  }
}

}  // namespace
}  // namespace drtp
