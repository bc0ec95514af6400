// BF: routing with bounded flooding (§4).
//
// On a request, the source floods channel-discovery packets (CDPs) toward
// the destination. A CDP is forwarded to neighbor k only if it passes
//   - the distance test:   hops-after-forwarding + minhops(k, dst)
//                          stays within hc_limit = ceil(rho*D) + sigma —
//                          this bounds the flood to an ellipse (in hop
//                          metric) with the endpoints as loci,
//   - the loop-freedom test: k not already on the CDP's node list,
//   - the bandwidth test:  bw_req <= total - prime on the link (a backup
//                          can share the spare pool, so spare is usable),
//   - the valid-detour test (non-first copies only):
//                          hc_curr <= alpha * min_dist + beta, where
//                          min_dist comes from the node's pending-
//                          connection-table entry.
// Each CDP carries primary_flag, which stays 1 only while every traversed
// link also has bw_req of *free* bandwidth (total - prime - spare).
// The destination gathers candidate routes (its CRT) and picks
//   primary: the shortest candidate with primary_flag == 1,
//   backup:  the candidate minimizing (overlap with primary, hops).
#pragma once

#include <cstdint>

#include "drtp/scheme.h"
#include "routing/distance_table.h"

namespace drtp::core {

struct FloodConfig {
  /// hc_limit = ceil(rho * minhops(src,dst)) + sigma. The paper's chosen
  /// operating point widens the bound by two hops (§6.2).
  double rho = 1.0;
  int sigma = 2;
  /// Valid-detour test: hc_curr <= alpha * min_dist + beta.
  double alpha = 1.0;
  int beta = 2;
  /// Safety budget on CDP forwards per request; exceeding it stops the
  /// flood (the already-gathered candidates are still used) and is
  /// reported in FloodStats — never silently.
  std::int64_t max_cdps = 500000;
};

class BoundedFlooding : public RoutingScheme {
 public:
  /// The distance tables are built once from `topo` (§4.1: updated only on
  /// topology change); call RebuildDistanceTable after failing links.
  explicit BoundedFlooding(const net::Topology& topo, FloodConfig config = {});

  std::string name() const override { return "BF"; }

  RouteSelection SelectRoutes(const DrtpNetwork& net,
                              const lsdb::LinkStateDb& db, NodeId src,
                              NodeId dst, Bandwidth bw) override;

  /// Step-4 reroute: floods again and picks the minimally-overlapping
  /// candidate relative to the existing primary.
  std::optional<routing::Path> SelectBackupFor(
      const DrtpNetwork& net, const lsdb::LinkStateDb& db,
      const routing::Path& primary, Bandwidth bw,
      std::span<const routing::Path> avoid = {}) override;

  /// Distance tables are rebuilt only upon change of network topology
  /// (§4.1); call after SetLinkDown/SetLinkUp.
  void RebuildDistanceTable(const DrtpNetwork& net);

  void OnTopologyChanged(const DrtpNetwork& net) override {
    RebuildDistanceTable(net);
  }

  struct FloodStats {
    std::int64_t cdp_forwards = 0;
    std::int64_t cdp_bytes = 0;
    int candidates = 0;
    bool budget_exhausted = false;

    friend bool operator==(const FloodStats&, const FloodStats&) = default;
  };
  /// Statistics of the most recent flood.
  const FloodStats& last_stats() const { return stats_; }

  /// One CRT entry (§4.1): a route a CDP safely traversed.
  struct Candidate {
    routing::Path route;
    bool primary_flag = false;

    friend bool operator==(const Candidate&, const Candidate&) = default;
  };

  /// Runs the bounded flood and materializes the destination's CRT in
  /// arrival order. Route selection never builds these paths; this is for
  /// diagnostics and differential tests.
  std::vector<Candidate> FloodCandidates(const DrtpNetwork& net, NodeId src,
                                         NodeId dst, Bandwidth bw);

  const FloodConfig& config() const { return config_; }
  const routing::DistanceTable& distance_table() const { return dt_; }

 private:
  FloodConfig config_;
  routing::DistanceTable dt_;
  FloodStats stats_;
};

}  // namespace drtp::core
