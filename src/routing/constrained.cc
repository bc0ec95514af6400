#include "routing/constrained.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "obs/span.h"

namespace drtp::routing {

std::optional<Path> CheapestPathMaxHops(const net::Topology& topo,
                                        NodeId src, NodeId dst,
                                        LinkCostFn cost, int max_hops) {
  MaxHopsWorkspace ws;
  return CheapestPathMaxHops(topo, src, dst, cost, max_hops, ws);
}

std::optional<Path> CheapestPathMaxHops(const net::Topology& topo,
                                        NodeId src, NodeId dst,
                                        LinkCostFn cost, int max_hops,
                                        MaxHopsWorkspace& ws) {
  // Sampled for the same reason as the Dijkstra kernel: innermost, called
  // repeatedly per admission under BF/maxhops schemes.
  DRTP_OBS_SPAN_SAMPLED("drtp.kernel.maxhops", 6);
  DRTP_CHECK(src >= 0 && src < topo.num_nodes());
  DRTP_CHECK(dst >= 0 && dst < topo.num_nodes());
  DRTP_CHECK(src != dst);
  DRTP_CHECK(max_hops >= 1);
  // The DP streams every link once per layer; the CSR endpoint mirrors
  // turn that into two sequential array reads instead of a strided walk
  // over 40-byte Link records.
  const net::Csr& csr = topo.csr();
  const NodeId* link_src = csr.link_src.data();
  const NodeId* link_dst = csr.link_dst.data();
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
            kInfiniteCost);
  ws.dist[static_cast<std::size_t>(src)] = 0.0;

  for (std::size_t h = 1; h < layers; ++h) {
    const double* prev = ws.dist.data() + (h - 1) * n;
    double* cur = ws.dist.data() + h * n;
    LinkId* par = ws.parent.data() + h * n;
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      const double du = prev[static_cast<std::size_t>(link_src[l])];
      if (du == kInfiniteCost) continue;
      const double c = cost(l);
      if (c == kInfiniteCost) continue;
      DRTP_CHECK_MSG(c >= 0.0, "negative cost on link " << l);
      const auto v = static_cast<std::size_t>(link_dst[l]);
      if (du + c < cur[v]) {
        cur[v] = du + c;
        par[v] = l;
      }
    }
  }

  // Best hop count within the bound.
  std::size_t best_h = 0;
  double best = kInfiniteCost;
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
    v = link_src[l];
  }
  DRTP_CHECK(v == src);
  return Path::FromLinks(topo, std::move(links));
}

}  // namespace drtp::routing
