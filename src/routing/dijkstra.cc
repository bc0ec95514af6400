#include "routing/dijkstra.h"

#include <algorithm>

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

/// The FunctionRef instantiation of the kernel, shared by the timed and
/// untimed entries of RunDijkstra. noinline so the hot loop's codegen is
/// bit-identical whether or not obs spans are compiled in — the span
/// object would otherwise stay live across the loop and shift register
/// allocation, which costs more than the span itself (see
/// docs/OBSERVABILITY.md).
[[gnu::noinline]] void RunDijkstraLoop(const net::Topology& topo, NodeId src,
                                       LinkCostFn cost, DijkstraWorkspace& ws,
                                       NodeId settle_until) {
  detail::DijkstraSearch(topo, src, cost, ws, settle_until);
}

}  // namespace

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
    RunDijkstraLoop(topo, src, cost, ws, settle_until);
    return;
  }
#endif
  RunDijkstraLoop(topo, src, cost, ws, settle_until);
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
  DRTP_CHECK(dst >= 0 && dst < topo.num_nodes());
  DRTP_CHECK(src != dst);
  RunDijkstra(topo, src, cost, ws, dst);
  return ws.PathTo(topo, dst);
}

std::optional<Path> MinHopPath(const net::Topology& topo, NodeId src,
                               NodeId dst,
                               FunctionRef<bool(LinkId)> usable) {
  DijkstraWorkspace ws;
  return MinHopPathWith(
      topo, src, dst, [&](LinkId l) { return !usable || usable(l); }, ws);
}

}  // namespace drtp::routing
