#include "routing/dijkstra.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "obs/span.h"

namespace drtp::routing {
namespace {

/// Walks the parent chain dst->src once to count hops, then fills the
/// exactly-sized link vector back-to-front — one allocation, no reverse.
template <typename ParentFn>
std::optional<Path> ExtractPath(const net::Topology& topo, NodeId dst,
                                ParentFn parent_link) {
  std::size_t hops = 0;
  for (NodeId v = dst; parent_link(v) != kInvalidLink;
       v = topo.link(parent_link(v)).src) {
    ++hops;
  }
  if (hops == 0) return std::nullopt;  // dst == src
  std::vector<LinkId> links(hops);
  NodeId v = dst;
  for (std::size_t i = hops; i-- > 0;) {
    const LinkId l = parent_link(v);
    links[i] = l;
    v = topo.link(l).src;
  }
  return Path::FromLinks(topo, std::move(links));
}

}  // namespace

namespace detail {

/// The actual algorithm, shared by the timed and untimed entries below.
/// noinline so the hot loop's codegen is bit-identical whether or not obs
/// spans are compiled in — the span object would otherwise stay live
/// across the loop and shift register allocation, which costs more than
/// the span itself (see docs/OBSERVABILITY.md).
///
/// Walks the CSR rows: link id and head node come from two flat arrays
/// in out_links insertion order, so the relaxation sequence — and every
/// tie-break — matches the adjacency-list reference in drtp_oracle.
[[gnu::noinline]] void RunDijkstraLoop(const net::Topology& topo, NodeId src,
                                       LinkCostFn cost, DijkstraWorkspace& ws,
                                       NodeId settle_until) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  const net::Csr& csr = topo.csr();
  ws.Prepare(topo.num_nodes());
  ws.Relax(src, 0.0, kInvalidLink);

  // Manual heap over the reused buffer; push_back+push_heap / pop_heap+
  // pop_back is exactly how std::priority_queue is specified, so the pop
  // order (and therefore every tie-break) matches the allocating variant.
  auto& heap = ws.heap_;
  heap.clear();
  heap.emplace_back(0.0, src);
  const std::greater<> cmp;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > ws.Dist(u)) continue;  // stale
    if (u == settle_until) return;  // final: see RunDijkstra
    const auto row = static_cast<std::size_t>(u);
    const std::int32_t begin = csr.out_offsets[row];
    const std::int32_t end = csr.out_offsets[row + 1];
    for (std::int32_t i = begin; i < end; ++i) {
      const LinkId l = csr.out_link_ids[static_cast<std::size_t>(i)];
      const double c = cost(l);
      if (c == kInfiniteCost) continue;
      DRTP_CHECK_MSG(c >= 0.0, "negative cost " << c << " on link " << l);
      const NodeId v = csr.out_heads[static_cast<std::size_t>(i)];
      const double nd = d + c;
      if (nd < ws.Dist(v)) {
        ws.Relax(v, nd, l);
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
}

/// Monotone bucket queue (Dial): buckets_[d] is the frontier at integer
/// distance d, drained in ascending node id so the settle order is
/// ascending (dist, node) — the same total order the binary heap pops,
/// hence the same tree bit for bit. Distances are stored in the shared
/// double dist_ array (integers below 2^53 are exact), so Dist/ParentLink/
/// PathTo read both kernels' results identically.
///
/// Each bucket is filled unsorted (O(1) push), sorted descending once when
/// its distance becomes current, and drained from the back — one sort per
/// bucket instead of a heap operation per element, which is what buys the
/// speedup over the binary heap at BFS-sized frontiers. Zero-cost edges
/// are the one wrinkle: they push into the bucket being drained, where a
/// plain push_back would break the ascending-id order, so those (rare)
/// arrivals are placed by binary search instead.
[[gnu::noinline]] void RunDijkstraLoopInt(const net::Topology& topo,
                                          NodeId src, IntLinkCostFn cost,
                                          DijkstraWorkspace& ws,
                                          NodeId settle_until) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  const net::Csr& csr = topo.csr();
  ws.Prepare(topo.num_nodes());
  ws.Relax(src, 0.0, kInvalidLink);

  auto& buckets = ws.buckets_;
  if (buckets.empty()) buckets.resize(1);
  buckets[0].push_back(src);
  std::int64_t max_filled = 0;
  const std::greater<NodeId> desc;
  for (std::int64_t cur = 0; cur <= max_filled; ++cur) {
    {
      auto& bucket = buckets[static_cast<std::size_t>(cur)];
      std::sort(bucket.begin(), bucket.end(), desc);
    }
    // Re-index every iteration: relaxations below may grow `buckets` and
    // invalidate references into it (zero-cost edges re-enter this bucket).
    while (!buckets[static_cast<std::size_t>(cur)].empty()) {
      auto& bucket = buckets[static_cast<std::size_t>(cur)];
      const NodeId u = bucket.back();
      bucket.pop_back();
      const double d = static_cast<double>(cur);
      if (d > ws.Dist(u)) continue;  // stale
      if (u == settle_until) {
        // Settled: the parent chain to u is final. Drain the arena so the
        // next run starts clean without deallocating bucket storage.
        for (std::int64_t b = cur; b <= max_filled; ++b) {
          buckets[static_cast<std::size_t>(b)].clear();
        }
        return;
      }
      const auto row = static_cast<std::size_t>(u);
      const std::int32_t begin = csr.out_offsets[row];
      const std::int32_t end = csr.out_offsets[row + 1];
      for (std::int32_t i = begin; i < end; ++i) {
        const LinkId l = csr.out_link_ids[static_cast<std::size_t>(i)];
        const std::int64_t c = cost(l);
        if (c == kInfiniteIntCost) continue;
        DRTP_CHECK_MSG(c >= 0, "negative cost " << c << " on link " << l);
        const NodeId v = csr.out_heads[static_cast<std::size_t>(i)];
        const std::int64_t nd = cur + c;
        if (static_cast<double>(nd) < ws.Dist(v)) {
          DRTP_CHECK_MSG(nd < kMaxDijkstraBuckets,
                         "distance " << nd << " exceeds the bucket-queue "
                                     << "range; use the binary-heap kernel "
                                     << "for wide-range costs");
          ws.Relax(v, static_cast<double>(nd), l);
          if (nd > max_filled) {
            max_filled = nd;
            if (static_cast<std::size_t>(nd) >= buckets.size()) {
              buckets.resize(static_cast<std::size_t>(nd) + 1);
            }
          }
          auto& target = buckets[static_cast<std::size_t>(nd)];
          if (nd == cur) {
            // Zero-cost edge into the bucket being drained: keep the
            // descending order so back-pops stay ascending — exactly when
            // the binary heap would pop (cur, v) next among the remaining.
            target.insert(
                std::upper_bound(target.begin(), target.end(), v, desc), v);
          } else {
            target.push_back(v);
          }
        }
      }
    }
  }
}

}  // namespace detail

std::optional<Path> DijkstraTree::PathTo(const net::Topology& topo,
                                         NodeId dst) const {
  if (!Reached(dst)) return std::nullopt;
  return ExtractPath(topo, dst, [&](NodeId v) {
    return parent_link[static_cast<std::size_t>(v)];
  });
}

std::optional<Path> DijkstraWorkspace::PathTo(const net::Topology& topo,
                                              NodeId dst) const {
  if (!Reached(dst)) return std::nullopt;
  return ExtractPath(topo, dst, [&](NodeId v) { return ParentLink(v); });
}

void DijkstraWorkspace::Prepare(int num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (stamp_.size() < n) {
    dist_.resize(n);
    parent_.resize(n);
    stamp_.resize(n, 0);
  }
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stale stamps could collide
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

void RunDijkstra(const net::Topology& topo, NodeId src, LinkCostFn cost,
                 DijkstraWorkspace& ws, NodeId settle_until) {
#ifndef DRTP_OBS_DISABLED
  // Sampled 1-in-64: the innermost routing kernel, invoked several times
  // per backup selection. The timed path is a separate branch so the
  // untimed 63/64 of calls run the exact same RunDijkstraLoop code an
  // obs-disabled build runs.
  thread_local std::uint32_t tick = 0;
  if ((tick++ & 63u) == 0) {
    DRTP_OBS_SPAN("drtp.kernel.dijkstra");
    detail::RunDijkstraLoop(topo, src, cost, ws, settle_until);
    return;
  }
#endif
  detail::RunDijkstraLoop(topo, src, cost, ws, settle_until);
}

void RunDijkstraInt(const net::Topology& topo, NodeId src, IntLinkCostFn cost,
                    DijkstraWorkspace& ws, NodeId settle_until) {
#ifndef DRTP_OBS_DISABLED
  // Sampled 1-in-64 like the double kernel: same innermost position on the
  // admission hot path, same codegen-isolation split.
  thread_local std::uint32_t tick = 0;
  if ((tick++ & 63u) == 0) {
    DRTP_OBS_SPAN("drtp.kernel.dijkstra_int");
    detail::RunDijkstraLoopInt(topo, src, cost, ws, settle_until);
    return;
  }
#endif
  detail::RunDijkstraLoopInt(topo, src, cost, ws, settle_until);
}

DijkstraTree RunDijkstra(const net::Topology& topo, NodeId src,
                         LinkCostFn cost) {
  DijkstraWorkspace ws;
  RunDijkstra(topo, src, cost, ws);
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  DijkstraTree tree{std::vector<double>(n, kInfiniteCost),
                    std::vector<LinkId>(n, kInvalidLink)};
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    tree.dist[static_cast<std::size_t>(v)] = ws.Dist(v);
    tree.parent_link[static_cast<std::size_t>(v)] = ws.ParentLink(v);
  }
  return tree;
}

std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost) {
  DijkstraWorkspace ws;
  return CheapestPath(topo, src, dst, cost, ws);
}

std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost,
                                 DijkstraWorkspace& ws) {
  DRTP_CHECK(src != dst);
  RunDijkstra(topo, src, cost, ws, dst);
  return ws.PathTo(topo, dst);
}

std::optional<Path> CheapestPathInt(const net::Topology& topo, NodeId src,
                                    NodeId dst, IntLinkCostFn cost,
                                    DijkstraWorkspace& ws) {
  DRTP_CHECK(src != dst);
  RunDijkstraInt(topo, src, cost, ws, dst);
  return ws.PathTo(topo, dst);
}

std::optional<Path> MinHopPath(const net::Topology& topo, NodeId src,
                               NodeId dst,
                               FunctionRef<bool(LinkId)> usable) {
  return CheapestPath(topo, src, dst, [&](LinkId l) {
    if (usable && !usable(l)) return kInfiniteCost;
    return 1.0;
  });
}

}  // namespace drtp::routing
