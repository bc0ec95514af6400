// Reference implementations of the route-selection kernels.
//
// Each is the formulation a production kernel replaced, kept verbatim so
// the replacement can be pinned to it:
//   - RunDijkstraAdjList: the pre-CSR binary-heap Dijkstra over
//     Node::out_links, building a full DijkstraTree (no early exit);
//   - CheapestPathMaxHopsAdjList: the hop-bounded DP over Link records;
//   - RunDijkstraInt / CheapestPathInt: the integer-cost bucket-queue
//     Dijkstra (Dial's algorithm) the min-hop primary ran on before the
//     BFS;
//   - SelectPrimaryMinHopBinaryHeap: min-hop primary on the double-cost
//     heap instead of the BFS;
//   - FloodReference and the two selections over its CRT: bounded
//     flooding with a node list per CDP, a deque and a hash-map PCT, and
//     candidates scored through sorted LSET copies.
// tests/routing_test, tests/bounded_flood_test and
// tests/perf_equivalence_test hold the production kernels to these;
// bench/micro_engine times the pairs.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "drtp/bounded_flood.h"
#include "drtp/network.h"
#include "lsdb/link_state_db.h"
#include "net/topology.h"
#include "routing/constrained.h"
#include "routing/dijkstra.h"
#include "routing/distance_table.h"
#include "routing/path.h"

namespace drtp::oracle {

/// routing::RunDijkstra's full tree, over the adjacency lists with a
/// std::priority_queue.
routing::DijkstraTree RunDijkstraAdjList(const net::Topology& topo,
                                         NodeId src, routing::LinkCostFn cost);

/// Integer link costs for the bucket-queue kernel. Return
/// kInfiniteIntCost to forbid the link.
using IntLinkCostFn = FunctionRef<std::int64_t(LinkId)>;

inline constexpr std::int64_t kInfiniteIntCost =
    std::numeric_limits<std::int64_t>::max();

/// The bucket-queue kernel indexes a bucket per distinct distance value;
/// a relaxation past this many buckets is refused (CHECK).
inline constexpr std::int64_t kMaxDijkstraBuckets = std::int64_t{1} << 22;

/// Integer-cost Dijkstra on a monotone bucket queue (Dial's algorithm):
/// routing::RunDijkstra's tree for the same costs, zero-cost edges
/// included. `settle_until` != kInvalidNode stops the run once that node
/// is settled; only PathTo(settle_until) may then be read.
routing::DijkstraTree RunDijkstraInt(const net::Topology& topo, NodeId src,
                                     IntLinkCostFn cost,
                                     NodeId settle_until = kInvalidNode);

/// Cheapest src->dst path on RunDijkstraInt with early exit at `dst`.
std::optional<routing::Path> CheapestPathInt(const net::Topology& topo,
                                             NodeId src, NodeId dst,
                                             IntLinkCostFn cost);

/// routing::CheapestPathMaxHops, reading endpoints from the Link records.
std::optional<routing::Path> CheapestPathMaxHopsAdjList(
    const net::Topology& topo, NodeId src, NodeId dst,
    routing::LinkCostFn cost, int max_hops, routing::MaxHopsWorkspace& ws);

/// core::SelectPrimaryMinHop with unit double costs on the binary heap.
std::optional<routing::Path> SelectPrimaryMinHopBinaryHeap(
    const net::Topology& topo, const lsdb::LinkStateDb& db, NodeId src,
    NodeId dst, Bandwidth bw);

/// One bounded flood: the destination's CRT in arrival order and the
/// flood's statistics.
struct FloodResult {
  std::vector<core::BoundedFlooding::Candidate> crt;
  core::BoundedFlooding::FloodStats stats;
};

/// The bounded flood BoundedFlooding runs with distance table `dt` and
/// `config`.
FloodResult FloodReference(const core::DrtpNetwork& net,
                           const routing::DistanceTable& dt,
                           const core::FloodConfig& config, NodeId src,
                           NodeId dst, Bandwidth bw);

/// BoundedFlooding::SelectRoutes's choice over a flood's CRT (§4.4).
core::RouteSelection SelectRoutesReference(const FloodResult& flood);

/// BoundedFlooding::SelectBackupFor's choice over a flood's CRT.
std::optional<routing::Path> SelectBackupForReference(
    const FloodResult& flood, const routing::Path& primary,
    std::span<const routing::Path> avoid);

}  // namespace drtp::oracle
