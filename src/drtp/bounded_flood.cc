#include "drtp/bounded_flood.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "obs/span.h"

namespace drtp::core {
namespace {

/// A channel-discovery packet (§4.1) as one flood-arena record. The CDP's
/// `list` is not stored: it is the chain of parent records back to the
/// source, and `via` is the link the CDP arrived over.
struct CdpRecord {
  NodeId node;          ///< node currently holding the CDP
  std::int32_t parent;  ///< arena index it was forwarded from; -1 at src
  std::int32_t hops;    ///< hc_curr
  LinkId via;           ///< kInvalidLink at src
  bool primary_flag;
};

/// Wire size: fixed header (ids, hop fields, bw_req, flag) + node list of
/// hops + 1 entries.
std::int64_t CdpBytes(std::int32_t hops) {
  return 24 + 4 * (static_cast<std::int64_t>(hops) + 1);
}

/// Per-thread flood state, reused across requests so a flood allocates
/// nothing once warm and BoundedFlooding instances carry no arenas.
struct FloodScratch {
  /// Every CDP forwarded by the current flood, in send order. The arena
  /// is also the FIFO queue: a head cursor walks it while forwards append.
  std::vector<CdpRecord> arena;
  /// The CRT: arena indices of CDPs dequeued at the destination.
  std::vector<std::int32_t> crt;
  /// The PCT: min_dist per node, valid where pct_stamp == pct_epoch.
  std::vector<std::uint64_t> pct_stamp;
  std::vector<std::int32_t> pct_min;
  std::uint64_t pct_epoch = 0;
  /// Overlap weight per link — how many of the routes a candidate is
  /// scored against contain it — valid where link_stamp >= weight_base.
  std::vector<std::uint64_t> link_stamp;
  std::vector<std::int32_t> link_weight;
  std::uint64_t link_epoch = 0;
  std::uint64_t weight_base = 0;

  const CdpRecord& at(std::int32_t i) const {
    return arena[static_cast<std::size_t>(i)];
  }

  bool OnChain(std::int32_t i, NodeId k) const {
    for (; i >= 0; i = at(i).parent) {
      if (at(i).node == k) return true;
    }
    return false;
  }

  /// Sets the overlap weights to `primary` plus `avoid`, each route
  /// counting once per distinct link.
  void SetWeights(int num_links, const routing::Path& primary,
                  std::span<const routing::Path> avoid) {
    if (link_stamp.size() < static_cast<std::size_t>(num_links)) {
      link_stamp.resize(static_cast<std::size_t>(num_links), 0);
      link_weight.resize(static_cast<std::size_t>(num_links), 0);
    }
    weight_base = link_epoch + 1;
    const auto add = [&](const routing::Path& route) {
      const std::uint64_t serial = ++link_epoch;
      for (LinkId l : route.links()) {
        const auto i = static_cast<std::size_t>(l);
        if (link_stamp[i] == serial) continue;
        if (link_stamp[i] < weight_base) link_weight[i] = 0;
        ++link_weight[i];
        link_stamp[i] = serial;
      }
    };
    add(primary);
    for (const routing::Path& a : avoid) add(a);
  }

  /// Path::OverlapCount of the candidate against every added route,
  /// summed. Flooded routes are loop-free, so their links are distinct.
  int Overlap(std::int32_t i) const {
    int overlap = 0;
    for (; at(i).parent >= 0; i = at(i).parent) {
      const auto l = static_cast<std::size_t>(at(i).via);
      if (link_stamp[l] >= weight_base) overlap += link_weight[l];
    }
    return overlap;
  }

  /// True iff the candidate's route is `route` (Path equality).
  bool SameRoute(std::int32_t i, const routing::Path& route) const {
    const std::span<const LinkId> links = route.links();
    if (at(i).hops != static_cast<std::int32_t>(links.size())) return false;
    for (std::size_t h = links.size(); h-- > 0; i = at(i).parent) {
      if (at(i).via != links[h]) return false;
    }
    return true;
  }

  /// The candidate's route. A via link is the only link joining its two
  /// nodes (Topology::AddLink refuses parallel links), so this is the
  /// path Path::FromNodes builds from the CDP's node list.
  routing::Path BuildPath(const net::Topology& topo, std::int32_t i) const {
    std::vector<LinkId> links(static_cast<std::size_t>(at(i).hops));
    for (std::size_t h = links.size(); h-- > 0; i = at(i).parent) {
      links[h] = at(i).via;
    }
    auto path = routing::Path::FromLinks(topo, std::move(links));
    DRTP_CHECK(path.has_value());
    return std::move(*path);
  }
};

FloodScratch& Scratch() {
  thread_local FloodScratch scratch;
  return scratch;
}

/// Runs the bounded flood (§4.1–4.3) and leaves the destination's CRT in
/// the returned scratch; `stats` describes this flood.
///
/// The arena replays a FIFO deque of CDPs exactly: records are dequeued in
/// append order, which is send order, and a CDP that reaches `dst` enters
/// the CRT when dequeued. When the CDP budget runs out the flood stops,
/// dropping every queued CDP — including ones already sent to `dst` — as
/// clearing the deque did.
FloodScratch& Flood(const DrtpNetwork& net, const routing::DistanceTable& dt,
                    const FloodConfig& config, NodeId src, NodeId dst,
                    Bandwidth bw, BoundedFlooding::FloodStats& stats) {
  const net::Topology& topo = net.topology();
  const net::BandwidthLedger& ledger = net.ledger();
  DRTP_CHECK(dt.num_nodes() == topo.num_nodes());
  FloodScratch& s = Scratch();
  s.arena.clear();
  s.crt.clear();
  stats = BoundedFlooding::FloodStats{};
  if (!dt.Reachable(src, dst)) return s;

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

  const auto n = static_cast<std::size_t>(topo.num_nodes());
  if (s.pct_stamp.size() < n) {
    s.pct_stamp.resize(n, 0);
    s.pct_min.resize(n);
  }
  const std::uint64_t epoch = ++s.pct_epoch;
  // Pending connection table: creates the entry for `k` at its first
  // copy; returns false (entry untouched) when one exists.
  const auto pct_emplace = [&](NodeId k, std::int32_t hops) {
    const auto i = static_cast<std::size_t>(k);
    if (s.pct_stamp[i] == epoch) return false;
    s.pct_stamp[i] = epoch;
    s.pct_min[i] = hops;
    return true;
  };

  const net::Csr& csr = topo.csr();
  s.arena.push_back(CdpRecord{src, -1, 0, kInvalidLink, true});
  pct_emplace(src, 0);

  for (std::size_t head = 0; head < s.arena.size(); ++head) {
    // By value: forwards below append to the arena.
    const CdpRecord m = s.arena[head];
    const auto mi = static_cast<std::int32_t>(head);

    if (m.node == dst) {
      // Destination: fill the candidate-route table (§4.4).
      s.crt.push_back(mi);
      continue;
    }

    // Valid-detour test (§4.3) against the PCT entry; the entry exists for
    // every dequeued CDP (created at enqueue time), and FIFO order keeps
    // min_dist equal to the first — shortest — arrival.
    const int min_dist = s.pct_min[static_cast<std::size_t>(m.node)];
    if (m.hops > static_cast<int>(config.alpha * min_dist) + config.beta) {
      continue;
    }

    const auto row = static_cast<std::size_t>(m.node);
    const std::int32_t hc_next = m.hops + 1;
    for (std::int32_t e = csr.out_offsets[row]; e < csr.out_offsets[row + 1];
         ++e) {
      const LinkId l = csr.out_link_ids[static_cast<std::size_t>(e)];
      const NodeId k = csr.out_heads[static_cast<std::size_t>(e)];
      // Distance test: hops after forwarding plus the remaining minimum
      // distance must fit in the flooding bound.
      if (hc_next + dt.MinHops(k, dst) > hc_limit) continue;
      // Loop-freedom test over the CDP's list (its parent chain).
      if (s.OnChain(mi, k)) continue;
      // Bandwidth test.
      if (!backup_ok(l)) continue;
      // Valid-detour at the receiver, applied eagerly: a copy that would
      // be dropped on dequeue is never transmitted. (Equivalent to the
      // paper's receive-side test, but spares queue memory.)
      if (!pct_emplace(k, hc_next) && k != dst) {
        const int k_min = s.pct_min[static_cast<std::size_t>(k)];
        if (hc_next > static_cast<int>(config.alpha * k_min) + config.beta) {
          continue;
        }
      }

      if (stats.cdp_forwards >= config.max_cdps) {
        stats.budget_exhausted = true;
        break;
      }
      s.arena.push_back(
          CdpRecord{k, mi, hc_next, l, m.primary_flag && primary_ok(l)});
      ++stats.cdp_forwards;
      stats.cdp_bytes += CdpBytes(hc_next);
    }
    if (stats.budget_exhausted) break;
  }
  stats.candidates = static_cast<int>(s.crt.size());
  return s;
}

}  // namespace

BoundedFlooding::BoundedFlooding(const net::Topology& topo,
                                 FloodConfig config)
    : config_(config), dt_(routing::DistanceTable::Build(topo)) {
  DRTP_CHECK(config_.rho >= 1.0);
  DRTP_CHECK(config_.sigma >= 0);
  DRTP_CHECK(config_.alpha >= 1.0);
  DRTP_CHECK(config_.beta >= 0);
  DRTP_CHECK(config_.max_cdps > 0);
  // Flood-arena indices are int32.
  DRTP_CHECK(config_.max_cdps < std::numeric_limits<std::int32_t>::max());
}

void BoundedFlooding::RebuildDistanceTable(const DrtpNetwork& net) {
  // Down links are excluded by rebuilding on a pruned copy of the graph:
  // distance tables are hop counts over *usable* links.
  net::Topology pruned;
  const net::Topology& topo = net.topology();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const net::Node& node = topo.node(n);
    pruned.AddNode(node.x, node.y);
  }
  // AddLink ids will not match the original; we only need distances, which
  // depend on adjacency alone.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (!net.IsLinkUp(l)) continue;
    const net::Link& link = topo.link(l);
    pruned.AddLink(link.src, link.dst, link.capacity);
  }
  dt_ = routing::DistanceTable::Build(pruned);
}

std::vector<BoundedFlooding::Candidate> BoundedFlooding::FloodCandidates(
    const DrtpNetwork& net, NodeId src, NodeId dst, Bandwidth bw) {
  const FloodScratch& s = Flood(net, dt_, config_, src, dst, bw, stats_);
  std::vector<Candidate> crt;
  crt.reserve(s.crt.size());
  for (const std::int32_t i : s.crt) {
    crt.push_back(
        Candidate{s.BuildPath(net.topology(), i), s.at(i).primary_flag});
  }
  return crt;
}

RouteSelection BoundedFlooding::SelectRoutes(const DrtpNetwork& net,
                                             const lsdb::LinkStateDb&,
                                             NodeId src, NodeId dst,
                                             Bandwidth bw) {
  DRTP_OBS_SPAN("drtp.kernel.bf_flood");
  RouteSelection sel;
  FloodScratch& s = Flood(net, dt_, config_, src, dst, bw, stats_);
  sel.control_messages = stats_.cdp_forwards;
  sel.control_bytes = stats_.cdp_bytes;

  // Primary: shortest candidate with primary_flag set (§4.4). FIFO flood
  // order already yields nondecreasing hop counts, but do not rely on it.
  std::int32_t best_primary = -1;
  for (const std::int32_t i : s.crt) {
    if (!s.at(i).primary_flag) continue;
    if (best_primary < 0 || s.at(i).hops < s.at(best_primary).hops) {
      best_primary = i;
    }
  }
  if (best_primary < 0) return sel;
  sel.primary = s.BuildPath(net.topology(), best_primary);

  // Backup: all remaining candidates are eligible; minimize overlap with
  // the primary, then hop count.
  s.SetWeights(net.topology().num_links(), *sel.primary, {});
  std::int32_t best_backup = -1;
  int best_overlap = 0;
  for (const std::int32_t i : s.crt) {
    if (i == best_primary) continue;
    const int overlap = s.Overlap(i);
    if (best_backup < 0 || overlap < best_overlap ||
        (overlap == best_overlap && s.at(i).hops < s.at(best_backup).hops)) {
      best_backup = i;
      best_overlap = overlap;
    }
  }
  if (best_backup >= 0) sel.backup = s.BuildPath(net.topology(), best_backup);
  return sel;
}

std::optional<routing::Path> BoundedFlooding::SelectBackupFor(
    const DrtpNetwork& net, const lsdb::LinkStateDb&,
    const routing::Path& primary, Bandwidth bw,
    std::span<const routing::Path> avoid) {
  FloodScratch& s =
      Flood(net, dt_, config_, primary.src(), primary.dst(), bw, stats_);
  // Overlap is scored against the primary plus every route to avoid
  // (existing backups); hop count breaks ties.
  s.SetWeights(net.topology().num_links(), primary, avoid);
  std::int32_t best = -1;
  int best_overlap = 0;
  for (const std::int32_t i : s.crt) {
    const auto same = [&](const routing::Path& r) { return s.SameRoute(i, r); };
    if (same(primary) || std::any_of(avoid.begin(), avoid.end(), same)) {
      continue;
    }
    const int overlap = s.Overlap(i);
    if (best < 0 || overlap < best_overlap ||
        (overlap == best_overlap && s.at(i).hops < s.at(best).hops)) {
      best = i;
      best_overlap = overlap;
    }
  }
  if (best < 0) return std::nullopt;
  return s.BuildPath(net.topology(), best);
}

}  // namespace drtp::core
