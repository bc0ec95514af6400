// Tests for the routing substrate: path algebra, Dijkstra (cross-checked
// against Bellman-Ford on random graphs), distance tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "drtp/scheme.h"
#include "lsdb/link_state_db.h"
#include "net/generators.h"
#include "oracle/route_reference.h"
#include "routing/bellman_ford.h"
#include "routing/constrained.h"
#include "routing/dijkstra.h"
#include "routing/distance_table.h"
#include "routing/path.h"

namespace drtp::routing {
namespace {

using net::MakeGrid;
using net::MakeRing;
using net::MakeWaxman;
using net::Topology;

// ---- link sets ------------------------------------------------------------

TEST(LinkSet, MakeSortsAndDedups) {
  const LinkSet s = MakeLinkSet({5, 1, 3, 1, 5});
  EXPECT_EQ(s, (LinkSet{1, 3, 5}));
  EXPECT_TRUE(SetContains(s, 3));
  EXPECT_FALSE(SetContains(s, 2));
}

TEST(LinkSet, IntersectionCounting) {
  const LinkSet a = MakeLinkSet({1, 2, 3, 4});
  const LinkSet b = MakeLinkSet({3, 4, 5});
  EXPECT_EQ(SetIntersectCount(a, b), 2);
  EXPECT_FALSE(SetDisjoint(a, b));
  EXPECT_TRUE(SetDisjoint(a, MakeLinkSet({9})));
  EXPECT_TRUE(SetDisjoint(a, {}));
}

// ---- Path -----------------------------------------------------------------

TEST(Path, FromNodesBuildsChain) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const std::vector<NodeId> nodes{0, 1, 2, 5};
  const auto p = Path::FromNodes(t, nodes);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src(), 0);
  EXPECT_EQ(p->dst(), 5);
  EXPECT_EQ(p->hops(), 3);
  EXPECT_EQ(p->nodes(), nodes);
  EXPECT_TRUE(p->IsSimple());
}

TEST(Path, FromNodesRejectsNonAdjacent) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const std::vector<NodeId> nodes{0, 8};  // opposite corners
  EXPECT_FALSE(Path::FromNodes(t, nodes).has_value());
}

TEST(Path, FromLinksValidatesContinuity) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const LinkId l01 = t.FindLink(0, 1);
  const LinkId l12 = t.FindLink(1, 2);
  const LinkId l34 = t.FindLink(3, 4);
  ASSERT_NE(l01, kInvalidLink);
  EXPECT_TRUE(Path::FromLinks(t, {l01, l12}).has_value());
  EXPECT_FALSE(Path::FromLinks(t, {l01, l34}).has_value());
  EXPECT_FALSE(Path::FromLinks(t, {}).has_value());
}

TEST(Path, OverlapAndContains) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const auto a = Path::FromNodes(t, std::vector<NodeId>{0, 1, 2});
  const auto b = Path::FromNodes(t, std::vector<NodeId>{3, 0, 1, 2});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->OverlapCount(*b), 2);
  EXPECT_FALSE(a->LinkDisjoint(*b));
  const auto c = Path::FromNodes(t, std::vector<NodeId>{0, 3, 6});
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(a->LinkDisjoint(*c));
  EXPECT_TRUE(a->Contains(t.FindLink(0, 1)));
  EXPECT_FALSE(a->Contains(t.FindLink(1, 0)));  // direction matters
}

TEST(Path, OverlapCountMatchesLinkSetIntersection) {
  // Random walks (links may repeat) against the definition: the size of
  // the intersection of the two deduplicated LSETs.
  const Topology t = MakeGrid(3, 3, Mbps(1));
  Rng rng(5);
  const auto walk = [&] {
    std::vector<LinkId> links;
    NodeId at = static_cast<NodeId>(rng.Index(9));
    const std::size_t hops = 1 + rng.Index(10);
    for (std::size_t i = 0; i < hops; ++i) {
      const auto out = t.out_links(at);
      links.push_back(out[rng.Index(out.size())]);
      at = t.link(links.back()).dst;
    }
    auto p = Path::FromLinks(t, std::move(links));
    DRTP_CHECK(p.has_value());
    return *p;
  };
  for (int i = 0; i < 200; ++i) {
    const Path a = walk();
    const Path b = walk();
    EXPECT_EQ(a.OverlapCount(b),
              SetIntersectCount(a.ToLinkSet(), b.ToLinkSet()));
    EXPECT_EQ(b.OverlapCount(a), a.OverlapCount(b));
  }
}

TEST(Path, NonSimpleDetected) {
  const Topology t = MakeRing(4, Mbps(1));
  const auto p = Path::FromNodes(t, std::vector<NodeId>{0, 1, 2, 3, 0, 1});
  // Revisits 0 and 1 — but 0->1 twice would duplicate a link... use a walk
  // that revisits a node without repeating links: 0,1,2,3,0 then stop.
  const auto q = Path::FromNodes(t, std::vector<NodeId>{0, 1, 2, 3, 0});
  ASSERT_TRUE(q.has_value());
  EXPECT_FALSE(q->IsSimple());
  (void)p;
}

// ---- Dijkstra ----------------------------------------------------------------

TEST(Dijkstra, MinHopOnGrid) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const auto p = MinHopPath(t, 0, 8, nullptr);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 4);  // manhattan distance corner to corner
}

TEST(Dijkstra, RespectsUsablePredicate) {
  const Topology t = MakeRing(6, Mbps(1));
  const LinkId forward = t.FindLink(0, 1);
  const auto p =
      MinHopPath(t, 0, 1, [&](LinkId l) { return l != forward; });
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 5);  // forced the long way around
}

TEST(Dijkstra, UnreachableGivesNullopt) {
  Topology t;
  const NodeId a = t.AddNode();
  const NodeId b = t.AddNode();
  t.AddNode();
  t.AddDuplexLink(a, b, Mbps(1));
  EXPECT_FALSE(MinHopPath(t, a, 2, nullptr).has_value());
}

TEST(Dijkstra, InfiniteCostsExcludeLinks) {
  const Topology t = MakeGrid(2, 2, Mbps(1));
  const auto p = CheapestPath(t, 0, 3, [](LinkId) { return kInfiniteCost; });
  EXPECT_FALSE(p.has_value());
}

TEST(Dijkstra, NegativeCostRejected) {
  const Topology t = MakeGrid(2, 2, Mbps(1));
  EXPECT_THROW(CheapestPath(t, 0, 3, [](LinkId) { return -1.0; }),
               CheckError);
}

TEST(Dijkstra, PicksCheaperLongerRoute) {
  // Two-hop detour cheaper than the direct expensive link.
  Topology t;
  const NodeId a = t.AddNode();
  const NodeId b = t.AddNode();
  const NodeId c = t.AddNode();
  const auto [ab, ba] = t.AddDuplexLink(a, b, Mbps(1));
  t.AddDuplexLink(a, c, Mbps(1));
  t.AddDuplexLink(c, b, Mbps(1));
  (void)ba;
  const auto p = CheapestPath(t, a, b, [&](LinkId l) {
    return l == ab ? 10.0 : 1.0;
  });
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2);
  EXPECT_EQ(p->nodes()[1], c);
}

/// Property: Dijkstra distances equal Bellman-Ford distances on random
/// graphs with random costs.
class DijkstraVsBellmanFord : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBellmanFord, DistancesAgree) {
  const std::uint64_t seed = GetParam();
  const Topology t = MakeWaxman(net::WaxmanConfig{
      .nodes = 30, .avg_degree = 3.5, .seed = seed});
  Rng rng(seed * 31 + 7);
  std::vector<double> costs(static_cast<std::size_t>(t.num_links()));
  for (auto& c : costs) {
    c = rng.Bernoulli(0.1) ? kInfiniteCost : rng.UniformReal(0.1, 5.0);
  }
  const auto cost = [&](LinkId l) {
    return costs[static_cast<std::size_t>(l)];
  };
  for (NodeId src = 0; src < t.num_nodes(); src += 7) {
    const DijkstraTree tree = RunDijkstra(t, src, cost);
    const std::vector<double> bf = BellmanFordDistances(t, src, cost);
    for (NodeId v = 0; v < t.num_nodes(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (bf[i] == kInfiniteCost) {
        EXPECT_EQ(tree.dist[i], kInfiniteCost);
      } else {
        EXPECT_NEAR(tree.dist[i], bf[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBellmanFord,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Dijkstra, TreePathCostsMatchDistances) {
  const Topology t =
      MakeWaxman(net::WaxmanConfig{.nodes = 25, .avg_degree = 3.0, .seed = 4});
  const auto cost = [](LinkId l) { return 1.0 + (l % 3); };
  const DijkstraTree tree = RunDijkstra(t, 0, cost);
  for (NodeId v = 1; v < t.num_nodes(); ++v) {
    const auto p = tree.PathTo(t, v);
    ASSERT_TRUE(p.has_value());
    double sum = 0;
    for (LinkId l : p->links()) sum += cost(l);
    EXPECT_NEAR(sum, tree.dist[static_cast<std::size_t>(v)], 1e-9);
    EXPECT_EQ(p->src(), 0);
    EXPECT_EQ(p->dst(), v);
  }
}

// ---- CSR / integer-kernel differentials -----------------------------------
//
// PR discipline for the hot-path rewrites: every new layout or kernel
// keeps the old implementation as a reference, pinned bit-identical here.

/// links() is a span; materialize for gtest equality.
std::vector<LinkId> LinksOf(const Path& p) {
  return {p.links().begin(), p.links().end()};
}

/// Random integer costs with zero-cost and forbidden links mixed in —
/// the adversarial cases for the bucket queue (zero-cost edges re-enter
/// the bucket currently being drained).
std::vector<std::int64_t> RandomIntCosts(const Topology& t, Rng& rng) {
  std::vector<std::int64_t> costs(static_cast<std::size_t>(t.num_links()));
  for (auto& c : costs) {
    if (rng.Bernoulli(0.08)) {
      c = oracle::kInfiniteIntCost;
    } else if (rng.Bernoulli(0.15)) {
      c = 0;
    } else {
      c = static_cast<std::int64_t>(rng.Index(6)) + 1;
    }
  }
  return costs;
}

void ExpectSameTree(const Topology& t, const DijkstraWorkspace& a,
                    const DijkstraTree& b, const char* what) {
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    ASSERT_EQ(a.Dist(v), b.dist[i]) << what << ": dist diverged at " << v;
    ASSERT_EQ(a.ParentLink(v), b.parent_link[i])
        << what << ": parent diverged at " << v;
  }
}

// The bucket-queue kernel lives in drtp_oracle since the min-hop primary
// moved to the BFS; these pin it to the production binary heap.
TEST(DijkstraInt, BucketKernelMatchesBinaryHeapTree) {
  for (std::uint64_t seed : {1u, 5u, 9u, 13u}) {
    const Topology t = MakeWaxman(net::WaxmanConfig{
        .nodes = 60, .avg_degree = 3.5, .seed = seed});
    Rng rng(seed * 97 + 3);
    const std::vector<std::int64_t> costs = RandomIntCosts(t, rng);
    const auto icost = [&](LinkId l) {
      return costs[static_cast<std::size_t>(l)];
    };
    const auto dcost = [&](LinkId l) -> double {
      const std::int64_t c = costs[static_cast<std::size_t>(l)];
      return c == oracle::kInfiniteIntCost ? kInfiniteCost
                                           : static_cast<double>(c);
    };
    DijkstraWorkspace heap;
    for (NodeId src = 0; src < t.num_nodes(); src += 11) {
      const DijkstraTree bucket = oracle::RunDijkstraInt(t, src, icost);
      RunDijkstra(t, src, dcost, heap);
      ExpectSameTree(t, heap, bucket, "int-vs-heap");
    }
  }
}

TEST(DijkstraInt, EarlyExitPathEqualsFullRunPath) {
  const Topology t = MakeWaxman(net::WaxmanConfig{
      .nodes = 60, .avg_degree = 4.0, .seed = 21});
  Rng rng(77);
  const std::vector<std::int64_t> costs = RandomIntCosts(t, rng);
  const auto icost = [&](LinkId l) {
    return costs[static_cast<std::size_t>(l)];
  };
  for (int i = 0; i < 40; ++i) {
    const NodeId src =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(t.num_nodes())));
    NodeId dst =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(t.num_nodes())));
    if (dst == src) dst = (dst + 1) % t.num_nodes();
    const auto fast = oracle::CheapestPathInt(t, src, dst, icost);
    const auto ref = oracle::RunDijkstraInt(t, src, icost).PathTo(t, dst);
    ASSERT_EQ(fast.has_value(), ref.has_value()) << src << "->" << dst;
    if (fast.has_value()) {
      EXPECT_EQ(LinksOf(*fast), LinksOf(*ref)) << src << "->" << dst;
    }
  }
}

TEST(DijkstraInt, NegativeCostRejected) {
  const Topology t = MakeGrid(2, 2, Mbps(1));
  EXPECT_THROW(
      oracle::RunDijkstraInt(t, 0, [](LinkId) { return std::int64_t{-1}; }),
      CheckError);
}

TEST(DijkstraInt, RefusesCostsBeyondBucketRange) {
  const Topology t = MakeGrid(2, 2, Mbps(1));
  EXPECT_THROW(oracle::RunDijkstraInt(
                   t, 0, [](LinkId) { return oracle::kMaxDijkstraBuckets; }),
               CheckError);
}

/// A random directed graph: every node offers up to three out-links to
/// random heads, and the last node has no links at all.
Topology RandomDigraph(Rng& rng, int nodes) {
  Topology t;
  for (int i = 0; i < nodes; ++i) t.AddNode();
  const auto wired = static_cast<std::size_t>(nodes - 1);
  for (NodeId u = 0; u < nodes - 1; ++u) {
    for (int k = 0; k < 3; ++k) {
      const auto v = static_cast<NodeId>(rng.Index(wired));
      if (v != u && t.FindLink(u, v) == kInvalidLink) t.AddLink(u, v, Mbps(1));
    }
  }
  return t;
}

// The search kernels against the independent references on graphs built
// for ties: costs in {0, 1, 2} (many equal distances, zero-cost edges)
// and, for the min-hop primary, links that are down or lack bandwidth.
TEST(RouteKernels, TiedGraphsMatchReferences) {
  int adjacent = 0;
  int detoured = 0;
  int unreachable = 0;
  for (std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    Rng rng(seed * 31 + 7);
    const Topology t = RandomDigraph(rng, 40);
    std::vector<double> costs(static_cast<std::size_t>(t.num_links()));
    for (auto& c : costs) c = static_cast<double>(rng.Index(3));
    const auto cost = [&](LinkId l) {
      return costs[static_cast<std::size_t>(l)];
    };
    DijkstraWorkspace ws;
    for (NodeId src = 0; src < t.num_nodes(); src += 3) {
      const DijkstraTree ref = oracle::RunDijkstraAdjList(t, src, cost);
      detail::DijkstraSearch(t, src, cost, ws, kInvalidNode);
      ExpectSameTree(t, ws, ref, "templated-vs-adjlist");
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
        if (dst == src) continue;
        const auto fast = CheapestPathWith(t, src, dst, cost, ws);
        const auto want = ref.PathTo(t, dst);
        ASSERT_EQ(fast.has_value(), want.has_value()) << src << "->" << dst;
        if (fast.has_value()) {
          ASSERT_EQ(LinksOf(*fast), LinksOf(*want)) << src << "->" << dst;
        }
      }
    }

    // Min-hop primary: the BFS against the binary-heap reference.
    lsdb::LinkStateDb db(t.num_links(), t.num_links());
    for (LinkId l = 0; l < t.num_links(); ++l) {
      lsdb::LinkRecord& rec = db.record(l);
      rec.up = !rng.Bernoulli(0.1);
      rec.free_for_primary = rng.Bernoulli(0.15) ? Mbps(0) : Mbps(2);
    }
    const auto usable = [&](LinkId l) {
      return l != kInvalidLink && db.record(l).up &&
             db.record(l).free_for_primary >= Mbps(1);
    };
    for (NodeId src = 0; src < t.num_nodes(); ++src) {
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
        if (dst == src) continue;
        const auto bfs = core::SelectPrimaryMinHop(t, db, src, dst, Mbps(1));
        const auto heap =
            oracle::SelectPrimaryMinHopBinaryHeap(t, db, src, dst, Mbps(1));
        ASSERT_EQ(bfs.has_value(), heap.has_value()) << src << "->" << dst;
        if (!bfs.has_value()) {
          ++unreachable;
          continue;
        }
        ASSERT_EQ(LinksOf(*bfs), LinksOf(*heap)) << src << "->" << dst;
        const LinkId direct = t.FindLink(src, dst);
        if (usable(direct)) {
          ASSERT_EQ(bfs->hops(), 1) << src << "->" << dst;
          ++adjacent;
        } else if (direct != kInvalidLink) {
          ++detoured;  // the direct link is down or lacks bandwidth
        }
      }
    }
  }
  EXPECT_GT(adjacent, 0);
  EXPECT_GT(detoured, 0);
  EXPECT_GT(unreachable, 0);
}

TEST(DijkstraCsr, MatchesAdjacencyListReference) {
  for (std::uint64_t seed : {2u, 8u}) {
    const Topology t = MakeWaxman(net::WaxmanConfig{
        .nodes = 60, .avg_degree = 3.5, .seed = seed});
    Rng rng(seed + 500);
    std::vector<double> costs(static_cast<std::size_t>(t.num_links()));
    for (auto& c : costs) {
      c = rng.Bernoulli(0.1) ? kInfiniteCost : rng.UniformReal(0.1, 5.0);
    }
    const auto cost = [&](LinkId l) {
      return costs[static_cast<std::size_t>(l)];
    };
    DijkstraWorkspace csr;
    for (NodeId src = 0; src < t.num_nodes(); src += 13) {
      RunDijkstra(t, src, cost, csr);
      ExpectSameTree(t, csr, oracle::RunDijkstraAdjList(t, src, cost),
                     "csr-vs-adjlist");
    }
  }
}

/// Random double costs drawn from a few values, so ties are common, with
/// zero-cost and forbidden links mixed in.
std::vector<double> RandomTiedCosts(const Topology& t, Rng& rng) {
  std::vector<double> costs(static_cast<std::size_t>(t.num_links()));
  for (auto& c : costs) {
    if (rng.Bernoulli(0.1)) {
      c = kInfiniteCost;
    } else if (rng.Bernoulli(0.15)) {
      c = 0.0;
    } else {
      c = 0.5 * static_cast<double>(1 + rng.Index(4));
    }
  }
  return costs;
}

TEST(Dijkstra, EarlyExitPathEqualsFullTreePath) {
  // CheapestPath stops once dst settles; its route must be the full
  // tree's, tie-breaks included, and it must agree on unreachability.
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    Topology t = MakeWaxman(net::WaxmanConfig{
        .nodes = 50, .avg_degree = 3.5, .seed = seed});
    const NodeId isolated = t.AddNode();  // never reachable
    Rng rng(seed * 13 + 1);
    const std::vector<double> costs = RandomTiedCosts(t, rng);
    const auto cost = [&](LinkId l) {
      return costs[static_cast<std::size_t>(l)];
    };
    DijkstraWorkspace early;
    int reached = 0;
    int unreached = 0;
    for (NodeId src = 0; src < isolated; src += 5) {
      const DijkstraTree full = RunDijkstra(t, src, cost);
      for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
        if (dst == src) continue;
        const auto fast = CheapestPath(t, src, dst, cost, early);
        const auto ref = full.PathTo(t, dst);
        ASSERT_EQ(fast.has_value(), ref.has_value()) << src << "->" << dst;
        if (fast.has_value()) {
          ++reached;
          ASSERT_EQ(LinksOf(*fast), LinksOf(*ref)) << src << "->" << dst;
          ASSERT_EQ(early.Dist(dst), full.dist[static_cast<std::size_t>(dst)]);
        } else {
          ++unreached;
        }
      }
      EXPECT_FALSE(CheapestPath(t, src, isolated, cost, early).has_value());
    }
    EXPECT_GT(reached, 0);
    EXPECT_GT(unreached, 0);
  }
}

TEST(MaxHopsDp, CsrMatchesAdjacencyListReference) {
  const Topology t = MakeWaxman(net::WaxmanConfig{
      .nodes = 40, .avg_degree = 3.5, .seed = 6});
  Rng rng(601);
  std::vector<double> costs(static_cast<std::size_t>(t.num_links()));
  for (auto& c : costs) c = rng.UniformReal(0.1, 5.0);
  const auto cost = [&](LinkId l) {
    return costs[static_cast<std::size_t>(l)];
  };
  MaxHopsWorkspace csr;
  MaxHopsWorkspace adj;
  for (int i = 0; i < 30; ++i) {
    const NodeId src =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(t.num_nodes())));
    NodeId dst =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(t.num_nodes())));
    if (dst == src) dst = (dst + 1) % t.num_nodes();
    const int max_hops = 1 + static_cast<int>(rng.Index(8));
    const auto a = CheapestPathMaxHops(t, src, dst, cost, max_hops, csr);
    const auto b =
        oracle::CheapestPathMaxHopsAdjList(t, src, dst, cost, max_hops, adj);
    ASSERT_EQ(a.has_value(), b.has_value())
        << src << "->" << dst << " hops<=" << max_hops;
    if (a.has_value()) EXPECT_EQ(LinksOf(*a), LinksOf(*b));
  }
}

// ---- distance tables -------------------------------------------------------

TEST(DistanceTable, GridHopCounts) {
  const Topology t = MakeGrid(3, 3, Mbps(1));
  const DistanceTable dt = DistanceTable::Build(t);
  EXPECT_EQ(dt.MinHops(0, 0), 0);
  EXPECT_EQ(dt.MinHops(0, 8), 4);
  EXPECT_EQ(dt.MinHops(0, 4), 2);
  // Via-neighbor: going to 8 via node 1 still takes 1 + 3 hops.
  EXPECT_EQ(dt.MinHopsVia(0, 8, 1), 4);
  // Going to 0's neighbor 1 via neighbor 3 is a detour: 1 + MinHops(3,1).
  EXPECT_EQ(dt.MinHopsVia(0, 1, 3), 3);
}

TEST(DistanceTable, MatchesDistanceVectorOracle) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const Topology t = MakeWaxman(net::WaxmanConfig{
        .nodes = 40, .avg_degree = 3.0, .seed = seed});
    const DistanceTable dt = DistanceTable::Build(t);
    const auto oracle = DistanceVectorAllPairs(t);
    for (NodeId i = 0; i < t.num_nodes(); ++i) {
      for (NodeId j = 0; j < t.num_nodes(); ++j) {
        EXPECT_EQ(dt.MinHops(i, j),
                  oracle[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)]);
      }
    }
  }
}

TEST(DistanceTable, DisconnectedIsUnreachable) {
  Topology t;
  t.AddNode();
  t.AddNode();
  const DistanceTable dt = DistanceTable::Build(t);
  EXPECT_FALSE(dt.Reachable(0, 1));
  EXPECT_GE(dt.MinHops(0, 1), kUnreachableHops);
}

}  // namespace
}  // namespace drtp::routing
