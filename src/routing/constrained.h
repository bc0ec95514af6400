// Hop-constrained cheapest paths.
//
// The paper's QoS is bandwidth plus an end-to-end delay bound; with
// identical links, delay is proportional to hop count (§4 uses hop count
// as its distance metric throughout). A backup that only exists as a very
// long detour may violate the connection's delay QoS — §2's example D3
// "cannot recover from the failure of L13" if its QoS is too tight for the
// longer path. This module finds the cheapest path subject to a hop bound,
// which the link-state schemes use to keep backups QoS-feasible.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "net/topology.h"
#include "routing/dijkstra.h"
#include "routing/path.h"

namespace drtp::routing {

/// Reusable DP tables for CheapestPathMaxHops: (max_hops+1) x num_nodes
/// dist/parent layers flattened into two vectors, grown on demand and
/// refilled (never reallocated) per call. One per thread.
struct MaxHopsWorkspace {
  std::vector<double> dist;
  std::vector<LinkId> parent;
};

/// Cheapest src->dst path using at most `max_hops` links (must be >= 1).
/// Dynamic program over (hops, node): O(max_hops * links). With strictly
/// positive costs the result is loop-free. nullopt when no path fits.
std::optional<Path> CheapestPathMaxHops(const net::Topology& topo,
                                        NodeId src, NodeId dst,
                                        LinkCostFn cost, int max_hops);

/// Workspace-backed overload for hot paths (identical result).
std::optional<Path> CheapestPathMaxHops(const net::Topology& topo,
                                        NodeId src, NodeId dst,
                                        LinkCostFn cost, int max_hops,
                                        MaxHopsWorkspace& ws);

}  // namespace drtp::routing
