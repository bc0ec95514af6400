// Dijkstra shortest paths with pluggable non-negative link costs, and the
// min-hop breadth-first search.
//
// Both link-state schemes reduce backup selection to a single Dijkstra run
// over scheme-specific costs (Eq. 4 and Eq. 5); primary selection is a
// min-hop search over the links with enough free bandwidth (§2.2 step 1).
//
// The kernels are templates on their cost (or link-usability) callable,
// so a hot caller compiles its cost into the relaxation loop:
// SelectBackupLsr instantiates detail::DijkstraSearch with the Eq. 4/5
// cost and SelectPrimaryMinHop instantiates detail::MinHopSearch with its
// bandwidth test. The FunctionRef entry points below (RunDijkstra,
// CheapestPath, MinHopPath) are one instantiation each, for cold callers:
// baselines, SRLG-PAIR, tests. Every search runs on a DijkstraWorkspace,
// whose epoch-stamped scratch arrays are reused across calls — the request
// hot path runs thousands of selections per second and must not allocate
// per call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/function_ref.h"
#include "common/types.h"
#include "net/topology.h"
#include "routing/path.h"

namespace drtp::routing {

/// Cost of traversing a link. Return kInfiniteCost to forbid the link.
/// Non-owning: the callable must outlive the routing call (always true for
/// a lambda passed directly at the call site).
using LinkCostFn = FunctionRef<double(LinkId)>;

inline constexpr double kInfiniteCost =
    std::numeric_limits<double>::infinity();

class DijkstraWorkspace;

namespace detail {
template <typename Cost>
void DijkstraSearch(const net::Topology& topo, NodeId src, const Cost& cost,
                    DijkstraWorkspace& ws, NodeId settle_until);
template <typename Usable>
bool MinHopSearch(const net::Topology& topo, NodeId src, NodeId dst,
                  const Usable& usable, DijkstraWorkspace& ws);
}  // namespace detail

/// Single-source shortest path tree.
struct DijkstraTree {
  /// dist[v] is the cost from the source; infinity when unreachable.
  std::vector<double> dist;
  /// parent_link[v] is the tree link entering v; kInvalidLink at the
  /// source and unreachable nodes.
  std::vector<LinkId> parent_link;

  bool Reached(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] < kInfiniteCost;
  }

  /// Extracts the path source->dst from the tree; nullopt if unreachable
  /// or dst is the source itself.
  std::optional<Path> PathTo(const net::Topology& topo, NodeId dst) const;
};

/// Reusable search scratch: dist/parent arrays invalidated by an epoch
/// stamp (bumping the epoch resets every node in O(1)), the binary heap's
/// backing store and the BFS frontiers. One run's results stay readable
/// until the next run on the same workspace. Not thread-safe — use one
/// per thread (thread_local in the schemes).
class DijkstraWorkspace {
 public:
  bool Reached(NodeId v) const { return Dist(v) < kInfiniteCost; }

  /// Cost from the last run's source (hop count after a min-hop search);
  /// infinity when unreachable.
  double Dist(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return stamp_[i] == epoch_ ? dist_[i] : kInfiniteCost;
  }

  /// Tree link entering `v`; kInvalidLink at the source / unreachable.
  LinkId ParentLink(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return stamp_[i] == epoch_ ? parent_[i] : kInvalidLink;
  }

  /// As DijkstraTree::PathTo, reading the last run's tree.
  std::optional<Path> PathTo(const net::Topology& topo, NodeId dst) const;

 private:
  template <typename Cost>
  friend void detail::DijkstraSearch(const net::Topology& topo, NodeId src,
                                     const Cost& cost, DijkstraWorkspace& ws,
                                     NodeId settle_until);
  template <typename Usable>
  friend bool detail::MinHopSearch(const net::Topology& topo, NodeId src,
                                   NodeId dst, const Usable& usable,
                                   DijkstraWorkspace& ws);

  void Prepare(int num_nodes);
  void Relax(NodeId v, double d, LinkId parent) {
    const auto i = static_cast<std::size_t>(v);
    stamp_[i] = epoch_;
    dist_[i] = d;
    parent_[i] = parent;
  }

  std::vector<double> dist_;
  std::vector<LinkId> parent_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<std::pair<double, NodeId>> heap_;
  /// MinHopSearch's frontiers: the level being walked and the next one.
  std::vector<NodeId> level_;
  std::vector<NodeId> next_;
};

namespace detail {

/// The Dijkstra kernel, templated on its cost so a hot caller's cost
/// compiles into the relaxation loop. Walks the CSR rows from `src`: link
/// id and head node come from two flat arrays in out_links insertion
/// order, and a lazy binary heap pops (dist, node) in ascending
/// lexicographic order — the order oracle::RunDijkstraAdjList's
/// std::priority_queue pops — so the relaxation sequence, and every
/// tie-break, matches that reference. Costs must be non-negative
/// (checked per relaxation). See RunDijkstra for `settle_until`.
template <typename Cost>
[[gnu::always_inline]] inline void DijkstraSearch(
    const net::Topology& topo, NodeId src, const Cost& cost,
    DijkstraWorkspace& ws, NodeId settle_until) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  const net::Csr& csr = topo.csr();
  ws.Prepare(topo.num_nodes());
  ws.Relax(src, 0.0, kInvalidLink);

  // Manual heap over the reused buffer: push_back+push_heap /
  // pop_heap+pop_back, exactly how std::priority_queue is specified.
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

/// Level-synchronous BFS from `src` over the links `usable` accepts;
/// returns true once `dst` is discovered (ws.PathTo(dst) is then the
/// route), false when it is unreachable.
///
/// Each level is walked in ascending node id, each node's out-links in
/// CSR order, and a node's parent is fixed at its first discovery. That
/// is the tree Dijkstra builds over unit costs: its heap pops the nodes
/// at hop count h in ascending id (the (dist, node) order), and the
/// strict `<` relaxation keeps the first parent offered at h + 1. So the
/// search may stop when `dst` is *discovered* rather than settled — its
/// parent, and its parent chain (all at lower levels), are already final.
template <typename Usable>
[[gnu::always_inline]] inline bool MinHopSearch(const net::Topology& topo,
                                                NodeId src, NodeId dst,
                                                const Usable& usable,
                                                DijkstraWorkspace& ws) {
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  DRTP_CHECK(dst >= 0 && dst < topo.num_nodes());
  DRTP_CHECK(src != dst);
  const net::Csr& csr = topo.csr();
  ws.Prepare(topo.num_nodes());
  ws.Relax(src, 0.0, kInvalidLink);

  auto& level = ws.level_;
  auto& next = ws.next_;
  level.assign(1, src);
  for (double hops = 1.0; !level.empty(); hops += 1.0) {
    next.clear();
    for (const NodeId u : level) {
      const auto row = static_cast<std::size_t>(u);
      const std::int32_t begin = csr.out_offsets[row];
      const std::int32_t end = csr.out_offsets[row + 1];
      for (std::int32_t i = begin; i < end; ++i) {
        const NodeId v = csr.out_heads[static_cast<std::size_t>(i)];
        if (ws.stamp_[static_cast<std::size_t>(v)] == ws.epoch_) continue;
        const LinkId l = csr.out_link_ids[static_cast<std::size_t>(i)];
        if (!usable(l)) continue;
        ws.Relax(v, hops, l);
        if (v == dst) return true;
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    level.swap(next);
  }
  return false;
}

}  // namespace detail

/// Runs Dijkstra from `src` and returns the full tree. Costs must be
/// non-negative (checked).
DijkstraTree RunDijkstra(const net::Topology& topo, NodeId src,
                         LinkCostFn cost);

/// Workspace-backed variant: the same tree, results land in `ws`.
///
/// `settle_until` != kInvalidNode stops the run once that node pops as
/// settled. Costs are non-negative, so every later pop has d' >= d and
/// relaxes to d' + c >= d (rounding is monotone): the strict `<` test can
/// never again lower the dist of that node or of any node on its parent
/// chain, all of which popped earlier. PathTo(settle_until) is therefore
/// the full tree's path bit for bit; other nodes' results are unspecified.
void RunDijkstra(const net::Topology& topo, NodeId src, LinkCostFn cost,
                 DijkstraWorkspace& ws, NodeId settle_until = kInvalidNode);

/// Cheapest src->dst path under any cost callable, on the templated
/// kernel with early exit once `dst` settles; nullopt when disconnected
/// (or when every route has infinite cost).
template <typename Cost>
[[gnu::always_inline]] inline std::optional<Path> CheapestPathWith(const net::Topology& topo, NodeId src,
                                     NodeId dst, const Cost& cost,
                                     DijkstraWorkspace& ws) {
  DRTP_CHECK(dst >= 0 && dst < topo.num_nodes());
  DRTP_CHECK(src != dst);
  detail::DijkstraSearch(topo, src, cost, ws, dst);
  return ws.PathTo(topo, dst);
}

/// Convenience: cheapest src->dst path (CheapestPathWith's FunctionRef
/// instantiation).
std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost);

/// Workspace-backed overload.
std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost,
                                 DijkstraWorkspace& ws);

/// Min-hop src->dst path over the links `usable` accepts, on the BFS
/// kernel; the route Dijkstra picks over unit costs with the other links
/// priced at infinity. nullopt when unreachable.
template <typename Usable>
[[gnu::always_inline]] inline std::optional<Path> MinHopPathWith(const net::Topology& topo, NodeId src,
                                   NodeId dst, const Usable& usable,
                                   DijkstraWorkspace& ws) {
  if (!detail::MinHopSearch(topo, src, dst, usable, ws)) return std::nullopt;
  return ws.PathTo(topo, dst);
}

/// Min-hop path restricted to links where `usable` returns true (pass
/// nullptr for no restriction).
std::optional<Path> MinHopPath(const net::Topology& topo, NodeId src,
                               NodeId dst, FunctionRef<bool(LinkId)> usable);

}  // namespace drtp::routing
