#include "oracle/route_reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace drtp::oracle {
namespace {

using Candidate = core::BoundedFlooding::Candidate;

/// A channel-discovery packet in flight (§4.1). `nodes` is the CDP's
/// `list` plus the node currently holding it; hc_curr == nodes.size()-1.
struct Cdp {
  std::vector<NodeId> nodes;
  bool primary_flag = true;
};

int HopCount(const Cdp& m) { return static_cast<int>(m.nodes.size()) - 1; }

/// Wire size: fixed header (ids, hop fields, bw_req, flag) + node list.
std::int64_t CdpBytes(const Cdp& m) {
  return 24 + 4 * static_cast<std::int64_t>(m.nodes.size());
}

/// Shared links as |LSET(a) ∩ LSET(b)| over sorted copies.
int Overlap(const routing::Path& a, const routing::Path& b) {
  return routing::SetIntersectCount(a.ToLinkSet(), b.ToLinkSet());
}

/// The (hops, node) DP; identical link order to the CSR kernel.
template <typename SrcOf, typename DstOf>
std::optional<routing::Path> MaxHopsDp(const net::Topology& topo, NodeId src,
                                       NodeId dst, routing::LinkCostFn cost,
                                       int max_hops,
                                       routing::MaxHopsWorkspace& ws,
                                       SrcOf src_of, DstOf dst_of) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  DRTP_CHECK(dst >= 0 && dst < topo.num_nodes());
  DRTP_CHECK(src != dst);
  DRTP_CHECK(max_hops >= 1);
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  const auto layers = static_cast<std::size_t>(max_hops) + 1;

  // dist[h*n + v] = cheapest cost of reaching v in exactly h hops;
  // parent[h*n + v] = the link used for the h-th hop on that path.
  if (ws.dist.size() < layers * n) {
    ws.dist.resize(layers * n);
    ws.parent.resize(layers * n);
  }
  std::fill(ws.dist.begin(), ws.dist.begin() + static_cast<std::ptrdiff_t>(
                                                   layers * n),
            routing::kInfiniteCost);
  ws.dist[static_cast<std::size_t>(src)] = 0.0;

  for (std::size_t h = 1; h < layers; ++h) {
    const double* prev = ws.dist.data() + (h - 1) * n;
    double* cur = ws.dist.data() + h * n;
    LinkId* par = ws.parent.data() + h * n;
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      const double du = prev[static_cast<std::size_t>(src_of(l))];
      if (du == routing::kInfiniteCost) continue;
      const double c = cost(l);
      if (c == routing::kInfiniteCost) continue;
      DRTP_CHECK_MSG(c >= 0.0, "negative cost on link " << l);
      const auto v = static_cast<std::size_t>(dst_of(l));
      if (du + c < cur[v]) {
        cur[v] = du + c;
        par[v] = l;
      }
    }
  }

  // Best hop count within the bound.
  std::size_t best_h = 0;
  double best = routing::kInfiniteCost;
  for (std::size_t h = 1; h < layers; ++h) {
    const double d = ws.dist[h * n + static_cast<std::size_t>(dst)];
    if (d < best) {
      best = d;
      best_h = h;
    }
  }
  if (best_h == 0) return std::nullopt;

  std::vector<LinkId> links(best_h);
  NodeId v = dst;
  for (std::size_t h = best_h; h >= 1; --h) {
    const LinkId l = ws.parent[h * n + static_cast<std::size_t>(v)];
    DRTP_CHECK(l != kInvalidLink);
    links[h - 1] = l;
    v = src_of(l);
  }
  DRTP_CHECK(v == src);
  return routing::Path::FromLinks(topo, std::move(links));
}

}  // namespace

routing::DijkstraTree RunDijkstraAdjList(const net::Topology& topo,
                                         NodeId src,
                                         routing::LinkCostFn cost) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  routing::DijkstraTree tree{std::vector<double>(n, routing::kInfiniteCost),
                             std::vector<LinkId>(n, kInvalidLink)};
  tree.dist[static_cast<std::size_t>(src)] = 0.0;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale
    for (LinkId l : topo.out_links(u)) {
      const double c = cost(l);
      if (c == routing::kInfiniteCost) continue;
      DRTP_CHECK_MSG(c >= 0.0, "negative cost " << c << " on link " << l);
      const NodeId v = topo.link(l).dst;
      const double nd = d + c;
      if (nd < tree.dist[static_cast<std::size_t>(v)]) {
        tree.dist[static_cast<std::size_t>(v)] = nd;
        tree.parent_link[static_cast<std::size_t>(v)] = l;
        heap.emplace(nd, v);
      }
    }
  }
  return tree;
}

routing::DijkstraTree RunDijkstraInt(const net::Topology& topo, NodeId src,
                                     IntLinkCostFn cost,
                                     NodeId settle_until) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  const net::Csr& csr = topo.csr();
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  routing::DijkstraTree tree{std::vector<double>(n, routing::kInfiniteCost),
                             std::vector<LinkId>(n, kInvalidLink)};
  tree.dist[static_cast<std::size_t>(src)] = 0.0;

  // buckets[d] is the frontier at integer distance d. Each bucket is
  // filled unsorted, sorted descending once when its distance becomes
  // current and drained from the back, so the settle order is ascending
  // (dist, node) — the binary heap's pop order, hence the same tree.
  // Zero-cost edges push into the bucket being drained; those arrivals
  // are placed by binary search to keep the order.
  std::vector<std::vector<NodeId>> buckets(1);
  buckets[0].push_back(src);
  const std::greater<NodeId> desc;
  for (std::size_t cur = 0; cur < buckets.size(); ++cur) {
    std::sort(buckets[cur].begin(), buckets[cur].end(), desc);
    // Re-index every iteration: relaxations below may grow `buckets`.
    while (!buckets[cur].empty()) {
      const NodeId u = buckets[cur].back();
      buckets[cur].pop_back();
      const double d = static_cast<double>(cur);
      if (d > tree.dist[static_cast<std::size_t>(u)]) continue;  // stale
      if (u == settle_until) return tree;
      const auto row = static_cast<std::size_t>(u);
      for (std::int32_t i = csr.out_offsets[row];
           i < csr.out_offsets[row + 1]; ++i) {
        const LinkId l = csr.out_link_ids[static_cast<std::size_t>(i)];
        const std::int64_t c = cost(l);
        if (c == kInfiniteIntCost) continue;
        DRTP_CHECK_MSG(c >= 0, "negative cost " << c << " on link " << l);
        const auto v =
            static_cast<std::size_t>(csr.out_heads[static_cast<std::size_t>(i)]);
        const std::int64_t nd = static_cast<std::int64_t>(cur) + c;
        if (static_cast<double>(nd) < tree.dist[v]) {
          DRTP_CHECK_MSG(nd < kMaxDijkstraBuckets,
                         "distance " << nd << " exceeds the bucket-queue "
                                     << "range");
          tree.dist[v] = static_cast<double>(nd);
          tree.parent_link[v] = l;
          const auto b = static_cast<std::size_t>(nd);
          if (b >= buckets.size()) buckets.resize(b + 1);
          auto& target = buckets[b];
          const auto node = static_cast<NodeId>(v);
          if (b == cur) {
            target.insert(
                std::upper_bound(target.begin(), target.end(), node, desc),
                node);
          } else {
            target.push_back(node);
          }
        }
      }
    }
  }
  return tree;
}

std::optional<routing::Path> CheapestPathInt(const net::Topology& topo,
                                             NodeId src, NodeId dst,
                                             IntLinkCostFn cost) {
  DRTP_CHECK(src != dst);
  return RunDijkstraInt(topo, src, cost, dst).PathTo(topo, dst);
}

std::optional<routing::Path> CheapestPathMaxHopsAdjList(
    const net::Topology& topo, NodeId src, NodeId dst,
    routing::LinkCostFn cost, int max_hops, routing::MaxHopsWorkspace& ws) {
  return MaxHopsDp(
      topo, src, dst, cost, max_hops, ws,
      [&](LinkId l) { return topo.link(l).src; },
      [&](LinkId l) { return topo.link(l).dst; });
}

std::optional<routing::Path> SelectPrimaryMinHopBinaryHeap(
    const net::Topology& topo, const lsdb::LinkStateDb& db, NodeId src,
    NodeId dst, Bandwidth bw) {
  thread_local routing::DijkstraWorkspace ws;
  return routing::CheapestPath(
      topo, src, dst,
      [&](LinkId l) {
        const lsdb::LinkRecord& rec = db.record(l);
        return rec.up && rec.free_for_primary >= bw ? 1.0
                                                    : routing::kInfiniteCost;
      },
      ws);
}

FloodResult FloodReference(const core::DrtpNetwork& net,
                           const routing::DistanceTable& dt,
                           const core::FloodConfig& config, NodeId src,
                           NodeId dst, Bandwidth bw) {
  FloodResult result;
  const net::Topology& topo = net.topology();
  const net::BandwidthLedger& ledger = net.ledger();
  DRTP_CHECK(dt.num_nodes() == topo.num_nodes());
  std::vector<Candidate>& crt = result.crt;
  core::BoundedFlooding::FloodStats& stats = result.stats;
  if (!dt.Reachable(src, dst)) return result;

  const int hc_limit =
      static_cast<int>(std::ceil(config.rho * dt.MinHops(src, dst))) +
      config.sigma;

  // Bandwidth tests (§4.2/4.3). A candidate route must be able to carry
  // the connection as a *backup*, i.e. within total - prime (the spare
  // pool is shareable); primary_flag additionally demands free bandwidth.
  const auto backup_ok = [&](LinkId l) {
    return net.IsLinkUp(l) && bw <= ledger.total(l) - ledger.prime(l);
  };
  const auto primary_ok = [&](LinkId l) { return ledger.free(l) >= bw; };

  // Pending connection table (min_dist per visited node).
  std::unordered_map<NodeId, int> pct;
  std::deque<Cdp> queue;
  queue.push_back(Cdp{.nodes = {src}, .primary_flag = true});
  pct.emplace(src, 0);

  while (!queue.empty()) {
    const Cdp m = std::move(queue.front());
    queue.pop_front();
    const NodeId here = m.nodes.back();

    if (here == dst) {
      // Destination: fill the candidate-route table (§4.4).
      auto route = routing::Path::FromNodes(topo, m.nodes);
      DRTP_CHECK(route.has_value());
      crt.push_back(Candidate{std::move(*route), m.primary_flag});
      continue;
    }

    // Valid-detour test (§4.3) against the PCT entry; the entry exists for
    // every dequeued CDP (created at enqueue time), and FIFO order keeps
    // min_dist equal to the first — shortest — arrival.
    const int min_dist = pct.at(here);
    if (HopCount(m) >
        static_cast<int>(config.alpha * min_dist) + config.beta) {
      continue;
    }

    for (LinkId l : topo.out_links(here)) {
      const NodeId k = topo.link(l).dst;
      // Distance test: hops after forwarding plus the remaining minimum
      // distance must fit in the flooding bound.
      if (HopCount(m) + 1 + dt.MinHops(k, dst) > hc_limit) continue;
      // Loop-freedom test.
      bool looped = false;
      for (NodeId n : m.nodes) {
        if (n == k) {
          looped = true;
          break;
        }
      }
      if (looped) continue;
      // Bandwidth test.
      if (!backup_ok(l)) continue;
      // Valid-detour at the receiver, applied eagerly: a copy that would
      // be dropped on dequeue is never transmitted. (Equivalent to the
      // paper's receive-side test, but spares queue memory.)
      const int hc_next = HopCount(m) + 1;
      auto [it, first_copy] = pct.try_emplace(k, hc_next);
      if (!first_copy && k != dst &&
          hc_next >
              static_cast<int>(config.alpha * it->second) + config.beta) {
        continue;
      }

      if (stats.cdp_forwards >= config.max_cdps) {
        stats.budget_exhausted = true;
        queue.clear();
        break;
      }
      Cdp fwd;
      fwd.nodes = m.nodes;
      fwd.nodes.push_back(k);
      fwd.primary_flag = m.primary_flag && primary_ok(l);
      ++stats.cdp_forwards;
      stats.cdp_bytes += CdpBytes(fwd);
      queue.push_back(std::move(fwd));
    }
  }
  stats.candidates = static_cast<int>(crt.size());
  return result;
}

core::RouteSelection SelectRoutesReference(const FloodResult& flood) {
  core::RouteSelection sel;
  sel.control_messages = flood.stats.cdp_forwards;
  sel.control_bytes = flood.stats.cdp_bytes;

  // Primary: shortest candidate with primary_flag set (§4.4). FIFO flood
  // order already yields nondecreasing hop counts, but do not rely on it.
  const Candidate* best_primary = nullptr;
  for (const Candidate& c : flood.crt) {
    if (!c.primary_flag) continue;
    if (best_primary == nullptr ||
        c.route.hops() < best_primary->route.hops()) {
      best_primary = &c;
    }
  }
  if (best_primary == nullptr) return sel;
  sel.primary = best_primary->route;

  // Backup: all remaining candidates are eligible; minimize overlap with
  // the primary, then hop count.
  const Candidate* best_backup = nullptr;
  int best_overlap = 0;
  for (const Candidate& c : flood.crt) {
    if (&c == best_primary) continue;
    const int overlap = Overlap(c.route, *sel.primary);
    if (best_backup == nullptr || overlap < best_overlap ||
        (overlap == best_overlap &&
         c.route.hops() < best_backup->route.hops())) {
      best_backup = &c;
      best_overlap = overlap;
    }
  }
  if (best_backup != nullptr) sel.backup = best_backup->route;
  return sel;
}

std::optional<routing::Path> SelectBackupForReference(
    const FloodResult& flood, const routing::Path& primary,
    std::span<const routing::Path> avoid) {
  // Overlap is scored against the primary plus every route to avoid
  // (existing backups); hop count breaks ties.
  const Candidate* best = nullptr;
  int best_overlap = 0;
  for (const Candidate& c : flood.crt) {
    if (c.route == primary) continue;
    bool is_existing = false;
    for (const routing::Path& a : avoid) {
      if (c.route == a) {
        is_existing = true;
        break;
      }
    }
    if (is_existing) continue;
    int overlap = Overlap(c.route, primary);
    for (const routing::Path& a : avoid) overlap += Overlap(c.route, a);
    if (best == nullptr || overlap < best_overlap ||
        (overlap == best_overlap && c.route.hops() < best->route.hops())) {
      best = &c;
      best_overlap = overlap;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->route;
}

}  // namespace drtp::oracle
