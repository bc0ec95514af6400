// Dijkstra shortest paths with pluggable non-negative link costs.
//
// Both link-state schemes reduce backup selection to a single Dijkstra run
// over scheme-specific costs (Eq. 4 and Eq. 5); primary selection uses
// unit costs with infeasible links priced at infinity.
//
// Two entry points: the allocating RunDijkstra/DijkstraTree (convenient,
// used by tests and cold paths) and the workspace-backed overloads that
// reuse epoch-stamped scratch arrays across calls — the request hot path
// runs thousands of selections per second and must not allocate per call.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

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

/// Integer link costs for the monotone bucket-queue kernel. Return
/// kInfiniteIntCost to forbid the link.
using IntLinkCostFn = FunctionRef<std::int64_t(LinkId)>;

inline constexpr std::int64_t kInfiniteIntCost =
    std::numeric_limits<std::int64_t>::max();

/// The bucket-queue kernel indexes a bucket per distinct distance value;
/// a relaxation past this many buckets is refused (CHECK) — scale the
/// costs down or use the double/binary-heap kernel for wide-range costs.
inline constexpr std::int64_t kMaxDijkstraBuckets = std::int64_t{1} << 22;

class DijkstraWorkspace;

namespace detail {
/// Internal: the Dijkstra hot loop, shared by the obs-timed and untimed
/// entry paths of RunDijkstra (see dijkstra.cc for why it is split out).
/// Walks the topology's CSR rows; see RunDijkstra for `settle_until`.
void RunDijkstraLoop(const net::Topology& topo, NodeId src, LinkCostFn cost,
                     DijkstraWorkspace& ws, NodeId settle_until);

/// Integer-cost bucket-queue hot loop; see RunDijkstraInt.
void RunDijkstraLoopInt(const net::Topology& topo, NodeId src,
                        IntLinkCostFn cost, DijkstraWorkspace& ws,
                        NodeId settle_until);
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

/// Reusable Dijkstra scratch: dist/parent arrays invalidated by an epoch
/// stamp (bumping the epoch resets every node in O(1)) plus the binary
/// heap's backing store. One run's results stay readable until the next
/// run on the same workspace. Not thread-safe — use one per thread
/// (thread_local in the schemes).
class DijkstraWorkspace {
 public:
  bool Reached(NodeId v) const { return Dist(v) < kInfiniteCost; }

  /// Cost from the last run's source; infinity when unreachable.
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
  friend void detail::RunDijkstraLoop(const net::Topology& topo, NodeId src,
                                      LinkCostFn cost, DijkstraWorkspace& ws,
                                      NodeId settle_until);
  friend void detail::RunDijkstraLoopInt(const net::Topology& topo,
                                         NodeId src, IntLinkCostFn cost,
                                         DijkstraWorkspace& ws,
                                         NodeId settle_until);

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
  /// Bucket arena for the integer kernel: buckets_[d] holds the frontier
  /// at distance d (sorted descending by node id while being drained).
  /// Buckets are drained empty by every run (including early-exit runs),
  /// so the arena's inner vectors keep their capacity across calls — zero
  /// steady-state allocation.
  std::vector<std::vector<NodeId>> buckets_;
};

/// Runs Dijkstra from `src`. Costs must be non-negative (checked).
DijkstraTree RunDijkstra(const net::Topology& topo, NodeId src,
                         LinkCostFn cost);

/// Allocation-free variant: identical tree (same tie-breaks — the heap
/// replays std::priority_queue's pop order exactly), results land in `ws`.
///
/// `settle_until` != kInvalidNode stops the run once that node pops as
/// settled. Costs are non-negative, so every later pop has d' >= d and
/// relaxes to d' + c >= d (rounding is monotone): the strict `<` test can
/// never again lower the dist of that node or of any node on its parent
/// chain, all of which popped earlier. PathTo(settle_until) is therefore
/// the full tree's path bit for bit; other nodes' results are unspecified.
void RunDijkstra(const net::Topology& topo, NodeId src, LinkCostFn cost,
                 DijkstraWorkspace& ws, NodeId settle_until = kInvalidNode);

/// Integer-cost Dijkstra on a monotone bucket queue (Dial's algorithm) —
/// O(V + E + max_dist) with no log factor and no per-run allocation once
/// the workspace is warm. Produces the exact tree RunDijkstra builds for
/// the same costs: the binary heap pops (dist, node) in ascending
/// lexicographic order (duplicates never reach the heap — relaxation is
/// strict), and draining each distance bucket in ascending node id
/// replays that order, zero-cost edges included. Callers with
/// non-integer costs (e.g. the kEpsilon backup tie-break) must stay on
/// RunDijkstra; this kernel is for unit/hop-style metrics.
///
/// `settle_until` != kInvalidNode stops the run once that node is settled
/// (its dist/parent chain is final at pop time); distances beyond it are
/// then unspecified — only PathTo(settle_until) may be read.
void RunDijkstraInt(const net::Topology& topo, NodeId src, IntLinkCostFn cost,
                    DijkstraWorkspace& ws,
                    NodeId settle_until = kInvalidNode);

/// Convenience: cheapest src->dst path, nullopt when disconnected (or when
/// every route has infinite cost). Stops the search once `dst` settles.
std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost);

/// Workspace-backed overload for hot paths.
std::optional<Path> CheapestPath(const net::Topology& topo, NodeId src,
                                 NodeId dst, LinkCostFn cost,
                                 DijkstraWorkspace& ws);

/// Cheapest path under integer costs via the bucket-queue kernel, with
/// early exit once `dst` settles. Identical route to CheapestPath over
/// the same (integerized) costs.
std::optional<Path> CheapestPathInt(const net::Topology& topo, NodeId src,
                                    NodeId dst, IntLinkCostFn cost,
                                    DijkstraWorkspace& ws);

/// Min-hop path using unit costs, restricted to links where `usable`
/// returns true (pass nullptr for no restriction).
std::optional<Path> MinHopPath(const net::Topology& topo, NodeId src,
                               NodeId dst, FunctionRef<bool(LinkId)> usable);

}  // namespace drtp::routing
