// Equivalence suite for the hot-path rewrites: across randomized
// admit/release/fail/repair sequences,
//   - the incrementally published LinkStateDb must be bit-identical to a
//     record-by-record re-derivation from authoritative state (and a
//     second, interleaved db must be kept correct by the publish-stamp
//     fallback),
//   - the indexed failure evaluators (sweep totals, the sweep's per-link
//     output, per-connection verdicts on every link) must match the
//     full-scan oracle exactly, with single and multiple backups and on a
//     capacity-scarce grid,
//   - the link->connection reverse indexes must match brute-force scans.
// CheckConsistency() rides along, which also re-validates every APLV
// (including the num_at_max_ fast path in RemovePrimaryLset) and the
// down-link mirror. The CI sanitizer job runs this file under
// ASan/UBSan in a Debug build, where PublishTo additionally self-checks
// its incremental path against a full rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "lsdb/conflict_vector.h"
#include "net/generators.h"
#include "oracle/failure_scan.h"

namespace drtp::core {
namespace {

/// What WriteRecordTo must have produced for link `l`, re-derived from
/// authoritative state without going through any publish path.
lsdb::LinkRecord ExpectedRecord(const DrtpNetwork& net, LinkId l) {
  lsdb::LinkRecord rec;
  rec.up = net.IsLinkUp(l);
  rec.aplv_l1 = net.aplv(l).L1();
  rec.cv = net.aplv(l).ToConflictVector();
  if (rec.up) {
    rec.available_for_backup = net.ledger().spare(l) + net.ledger().free(l);
    rec.free_for_primary = net.ledger().free(l);
  } else {
    rec.available_for_backup = 0;
    rec.free_for_primary = 0;
  }
  return rec;
}

void ExpectDbMatches(const DrtpNetwork& net, const lsdb::LinkStateDb& db) {
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    ASSERT_EQ(db.record(l), ExpectedRecord(net, l))
        << "published record diverged on link " << l;
  }
}

void ExpectIndexesMatchBruteForce(const DrtpNetwork& net) {
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    std::vector<ConnId> primaries;
    std::vector<ConnId> backups;
    for (const auto& [id, conn] : net.connections()) {
      if (routing::SetContains(conn.primary_lset, l)) primaries.push_back(id);
      for (const routing::Path& backup : conn.backups) {
        if (backup.Contains(l)) {
          backups.push_back(id);
          break;
        }
      }
    }
    EXPECT_EQ(net.ConnsWithPrimaryOn(l), primaries) << "link " << l;
    EXPECT_EQ(net.ConnsWithBackupOn(l), backups) << "link " << l;
  }
}

/// What the failure checks of one sequence exercised, so an input meant
/// to cover a path can assert that it did.
struct FailureCoverage {
  /// Most backups any connection held at a check.
  std::size_t max_backups = 0;
  /// Backups sharing a link with their primary, whose demand there is
  /// reduced by the primary's release (need − credit < need).
  std::int64_t credited_backups = 0;
  /// Affected connections that held a backup and were still dropped
  /// (every backup failed, was down or did not fit).
  std::int64_t protected_drops = 0;
};

/// The indexed evaluators against the full-scan oracle: the sweep's
/// ratio, its per-link output, and EvaluateLinkFailureDetailed's
/// per-connection verdicts, on every link.
void ExpectFailureEvalMatchesScan(const DrtpNetwork& net,
                                  FailureCoverage& coverage) {
  std::vector<FailureImpact> per_link;
  const Ratio indexed = EvaluateAllSingleLinkFailures(net, &per_link);
  const Ratio scan = oracle::EvaluateAllSingleLinkFailuresScan(net);
  EXPECT_EQ(indexed.hits, scan.hits);
  EXPECT_EQ(indexed.trials, scan.trials);
  ASSERT_EQ(per_link.size(),
            static_cast<std::size_t>(net.topology().num_links()));
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    const FailureImpactDetail a = EvaluateLinkFailureDetailed(net, l);
    const FailureImpactDetail b =
        oracle::EvaluateLinkFailureScanDetailed(net, l);
    EXPECT_EQ(a.impact.attempts, b.impact.attempts) << "link " << l;
    EXPECT_EQ(a.impact.activated, b.impact.activated) << "link " << l;
    EXPECT_EQ(a.activated, b.activated) << "link " << l;
    EXPECT_EQ(a.dropped, b.dropped) << "link " << l;
    const FailureImpact swept = per_link[static_cast<std::size_t>(l)];
    const FailureImpact expected =
        net.IsLinkUp(l) ? b.impact : FailureImpact{};
    EXPECT_EQ(swept.attempts, expected.attempts) << "link " << l;
    EXPECT_EQ(swept.activated, expected.activated) << "link " << l;
    for (ConnId id : b.dropped) {
      if (net.Find(id)->has_backup()) ++coverage.protected_drops;
    }
  }
  for (const auto& [id, conn] : net.connections()) {
    coverage.max_backups = std::max(coverage.max_backups, conn.backups.size());
    for (const routing::Path& backup : conn.backups) {
      if (!backup.LinkDisjoint(conn.primary)) ++coverage.credited_backups;
    }
  }
}

/// links() is a span; materialize for gtest equality.
std::vector<LinkId> LinksOf(const routing::Path& p) {
  return {p.links().begin(), p.links().end()};
}

/// At an admit point, the rewritten kernels must pick exactly the routes
/// their retained reference implementations pick against the same db:
/// bucket-queue min-hop primary vs the binary-heap formulation, and the
/// two Eq. 5 conflict-scoring strategies against each other.
void ExpectRouteKernelsAgree(const net::Topology& topo,
                             const lsdb::LinkStateDb& db, NodeId src,
                             NodeId dst) {
  const auto radix = SelectPrimaryMinHop(topo, db, src, dst, Mbps(1));
  const auto binary =
      detail::SelectPrimaryMinHopBinaryHeap(topo, db, src, dst, Mbps(1));
  ASSERT_EQ(radix.has_value(), binary.has_value()) << src << "->" << dst;
  if (radix.has_value()) {
    ASSERT_EQ(LinksOf(*radix), LinksOf(*binary)) << src << "->" << dst;
    const routing::LinkSet primary = radix->ToLinkSet();
    const auto mask =
        SelectBackupLsr(topo, db, primary, src, dst, Mbps(1),
                        /*deterministic=*/true, {}, 0, CvScoring::kMask);
    const auto sparse =
        SelectBackupLsr(topo, db, primary, src, dst, Mbps(1),
                        /*deterministic=*/true, {}, 0, CvScoring::kSparse);
    ASSERT_EQ(mask.has_value(), sparse.has_value()) << src << "->" << dst;
    if (mask.has_value()) {
      ASSERT_EQ(LinksOf(*mask), LinksOf(*sparse)) << src << "->" << dst;
    }
  }
}

/// Random admit/release/fail/repair churn with every equivalence check.
/// Admissions register up to `num_backups` pairwise-disjoint backups.
FailureCoverage RunRandomizedSequence(const net::Topology& topo, bool duplex,
                                      std::uint64_t seed, int ops,
                                      int check_every, int num_backups = 1) {
  DrtpNetwork net(topo, NetworkConfig{.duplex_failures = duplex});
  // db is published incrementally after every mutation; db_lagged is
  // published every few ops and must be healed by the stamp fallback
  // (each PublishTo to one db invalidates the other's stamp).
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  lsdb::LinkStateDb db_lagged(topo.num_links(), topo.num_links());
  Dlsr scheme;
  Rng rng(seed);

  net.PublishTo(db, 0.0);
  std::vector<ConnId> live;
  ConnId next_id = 1;
  FailureCoverage coverage;
  Time t = 0.0;

  for (int op = 0; op < ops; ++op) {
    t += 1.0;
    const int kind = static_cast<int>(rng.Index(10));
    if (kind < 5) {  // admit
      const auto nodes = static_cast<std::size_t>(topo.num_nodes());
      const NodeId src = static_cast<NodeId>(rng.Index(nodes));
      NodeId dst = static_cast<NodeId>(rng.Index(nodes));
      if (dst == src) dst = (dst + 1) % topo.num_nodes();
      ExpectRouteKernelsAgree(topo, db, src, dst);
      const RouteSelection sel = scheme.SelectRoutes(net, db, src, dst,
                                                     Mbps(1));
      if (sel.primary.has_value() &&
          net.EstablishConnection(next_id, *sel.primary, Mbps(1), t)) {
        if (sel.backup.has_value()) net.RegisterBackup(next_id, *sel.backup);
        if (num_backups > 1) {
          ProtectConnection(scheme, net, db, next_id, num_backups);
        }
        live.push_back(next_id);
        ++next_id;
      }
    } else if (kind < 7) {  // release
      if (!live.empty()) {
        const std::size_t pick = rng.Index(live.size());
        net.ReleaseConnection(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (kind < 8) {  // fail (with step-4 reroute against db)
      std::vector<LinkId> up;
      for (LinkId l = 0; l < topo.num_links(); ++l) {
        if (net.IsLinkUp(l)) up.push_back(l);
      }
      // Keep a connected-ish network: stop failing below 80% of links.
      if (up.size() * 5 > static_cast<std::size_t>(topo.num_links()) * 4) {
        const LinkId l = up[rng.Index(up.size())];
        const SwitchoverReport report =
            ApplyLinkFailure(net, l, t, &scheme, &db);
        for (ConnId id : report.dropped) {
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
      }
    } else if (kind < 9) {  // repair
      const auto& down = net.down_links();
      if (!down.empty()) {
        net.SetLinkUp(down[rng.Index(down.size())]);
        scheme.OnTopologyChanged(net);
      }
    }
    // else: no mutation — publication of a clean network must also hold.

    net.PublishTo(db, t);
    ExpectDbMatches(net, db);
    if (op % 7 == 0) {
      net.PublishTo(db_lagged, t);
      ExpectDbMatches(net, db_lagged);
      // ...and the primary db must survive having lost the latest stamp.
      net.PublishTo(db, t);
      ExpectDbMatches(net, db);
    }
    if (op % check_every == 0) {
      ExpectIndexesMatchBruteForce(net);
      ExpectFailureEvalMatchesScan(net, coverage);
      net.CheckConsistency();
    }
  }
  ExpectIndexesMatchBruteForce(net);
  ExpectFailureEvalMatchesScan(net, coverage);
  net.CheckConsistency();
  return coverage;
}

TEST(PerfEquivalence, RandomizedSequenceSimplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/false,
                        /*seed=*/11, /*ops=*/300, /*check_every=*/10);
}

TEST(PerfEquivalence, RandomizedSequenceDuplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/true,
                        /*seed=*/23, /*ops=*/300, /*check_every=*/10);
}

TEST(PerfEquivalence, SecondSeedSimplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/false,
                        /*seed=*/47, /*ops=*/300, /*check_every=*/10);
}

TEST(PerfEquivalence, Waxman60Churn) {
  // The paper's evaluation substrate: 60 nodes, E ~ 3.5.
  RunRandomizedSequence(
      net::MakeWaxman(net::WaxmanConfig{
          .nodes = 60, .avg_degree = 3.5, .link_capacity = Mbps(12),
          .seed = 31}),
      /*duplex=*/true, /*seed=*/61, /*ops=*/200, /*check_every=*/10);
}

TEST(PerfEquivalence, Hierarchical1kChurn) {
  // The 1k bench recipe. Fewer ops and sparser O(links * conns) audits:
  // every publish is still re-derived record-by-record, and every admit
  // still differentially checks the routing kernels.
  RunRandomizedSequence(
      net::MakeHierarchical(net::HierConfig{
          .backbone = 10, .pops_per_backbone = 3, .metro_per_pop = 32,
          .seed = 7}),
      /*duplex=*/true, /*seed=*/71, /*ops=*/60, /*check_every=*/20);
}

TEST(PerfEquivalence, WideLinkStateChurn) {
  // Enough links to push APLV/CV/DemandVector onto the sparse wide-state
  // representations (> lsdb::kWideLinkThreshold), so ExpectDbMatches and
  // CheckConsistency compare wide lazy conflict vectors semantically
  // against freshly derived ones on every op.
  const net::Topology topo = net::MakeHierarchical(net::HierConfig{
      .backbone = 12, .pops_per_backbone = 6, .metro_per_pop = 30,
      .seed = 9});
  ASSERT_GT(topo.num_links(), lsdb::kWideLinkThreshold);
  RunRandomizedSequence(topo, /*duplex=*/true, /*seed=*/83, /*ops=*/40,
                        /*check_every=*/20);
}

TEST(PerfEquivalence, MultiBackupChurn) {
  // Up to three disjoint backups per connection: the evaluators must walk
  // each connection's backups in preference order and fall through the
  // ones that cross the failure or do not fit.
  for (const bool duplex : {false, true}) {
    const FailureCoverage coverage = RunRandomizedSequence(
        net::MakeGrid(5, 5, Mbps(6)), duplex, /*seed=*/101, /*ops=*/300,
        /*check_every=*/10, /*num_backups=*/3);
    EXPECT_GE(coverage.max_backups, 2u) << "duplex " << duplex;
  }
}

TEST(PerfEquivalence, ScarceCapacityChurn) {
  // Two connections fill a link, so spare pools stay short, backups
  // overlap their primaries (need − credit below need) and activations
  // lose the id-order contention.
  for (const bool duplex : {false, true}) {
    const FailureCoverage coverage = RunRandomizedSequence(
        net::MakeGrid(4, 4, Mbps(2)), duplex, /*seed=*/113, /*ops=*/300,
        /*check_every=*/5, /*num_backups=*/2);
    EXPECT_GE(coverage.max_backups, 2u) << "duplex " << duplex;
    EXPECT_GT(coverage.protected_drops, 0) << "duplex " << duplex;
    EXPECT_GT(coverage.credited_backups, 0) << "duplex " << duplex;
  }
}

TEST(PerfEquivalence, FreshDbGetsFullRepublish) {
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  DrtpNetwork net(topo);
  lsdb::LinkStateDb warm(topo.num_links(), topo.num_links());
  net.PublishTo(warm, 0.0);

  const auto path = routing::Path::FromNodes(
      topo, std::vector<NodeId>{0, 1, 2});
  ASSERT_TRUE(path.has_value());
  ASSERT_TRUE(net.EstablishConnection(1, *path, Mbps(1), 0.0));
  net.PublishTo(warm, 1.0);

  // A db that never saw any publication must still come out complete.
  lsdb::LinkStateDb fresh(topo.num_links(), topo.num_links());
  net.PublishTo(fresh, 2.0);
  ExpectDbMatches(net, fresh);
  ExpectDbMatches(net, warm);  // warm is one publish behind but untouched
}

TEST(PerfEquivalence, PublishFullToHealsExternalMutation) {
  // The incremental contract: a record mutated behind the network's back
  // is out of contract for PublishTo but must be healed by PublishFullTo.
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  DrtpNetwork net(topo);
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  net.PublishTo(db, 0.0);
  db.record(0).free_for_primary = Mbps(999);
  net.PublishFullTo(db, 1.0);
  ExpectDbMatches(net, db);
}

}  // namespace
}  // namespace drtp::core
