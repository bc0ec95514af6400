#include "drtp/scheme.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "obs/span.h"
#include "routing/constrained.h"
#include "routing/dijkstra.h"

namespace drtp::core {
namespace {

/// Per-thread scratch for backup selection: the primary's LSET as a word
/// mask (for ConflictVector::AndPopCount), the shunned-link set as an
/// epoch-stamped array (O(marked) rebuild, no clear), and the routing
/// workspaces. thread_local because the sweep runner evaluates scenarios
/// on a pool.
struct LsrScratch {
  std::vector<std::uint64_t> primary_mask;
  /// Sorted-unique risk groups of the current primary (SRLG-aware modes
  /// only; empty otherwise).
  std::vector<SrlgId> primary_srlgs;
  std::vector<std::uint64_t> shun_stamp;
  std::uint64_t shun_epoch = 0;
  routing::DijkstraWorkspace dijkstra;
  routing::MaxHopsWorkspace max_hops;

  /// mask_words == 0 skips the mask rebuild (sparse CV scoring, or a
  /// scheme that never reads it).
  void Prepare(int num_links, int mask_words) {
    primary_mask.assign(static_cast<std::size_t>(mask_words), 0);
    if (shun_stamp.size() < static_cast<std::size_t>(num_links)) {
      shun_stamp.resize(static_cast<std::size_t>(num_links), 0);
    }
    ++shun_epoch;
  }

  void Shun(LinkId l) { shun_stamp[static_cast<std::size_t>(l)] = shun_epoch; }
  bool Shunned(LinkId l) const {
    return shun_stamp[static_cast<std::size_t>(l)] == shun_epoch;
  }
};

LsrScratch& Scratch() {
  thread_local LsrScratch scratch;
  return scratch;
}

}  // namespace

std::optional<routing::Path> SelectPrimaryMinHop(const net::Topology& topo,
                                                 const lsdb::LinkStateDb& db,
                                                 NodeId src, NodeId dst,
                                                 Bandwidth bw) {
  return routing::CheapestPathInt(
      topo, src, dst,
      [&](LinkId l) {
        const lsdb::LinkRecord& rec = db.record(l);
        return rec.up && rec.free_for_primary >= bw
                   ? std::int64_t{1}
                   : routing::kInfiniteIntCost;
      },
      Scratch().dijkstra);
}

std::optional<routing::Path> RoutingScheme::SelectBackupFor(
    const DrtpNetwork&, const lsdb::LinkStateDb&, const routing::Path&,
    Bandwidth, std::span<const routing::Path>) {
  return std::nullopt;
}

std::optional<routing::Path> SelectBackupLsr(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, NodeId src, NodeId dst, Bandwidth bw,
    bool deterministic, std::span<const routing::Path> avoid, int max_hops,
    CvScoring scoring, SrlgMode srlg_mode) {
  // Sampled 1-in-4: runs once per admission at a few µs per call, where a
  // full span's clock reads are a measurable fraction of the kernel (the
  // CI obs-overhead gate budget; see docs/OBSERVABILITY.md).
  DRTP_OBS_SPAN_SAMPLED("drtp.kernel.backup_select", 2);
  return detail::SelectBackupLsrWith(
      topo, db, primary, bw, deterministic, avoid, scoring, srlg_mode,
      [&](routing::LinkCostFn cost) {
        if (max_hops > 0) {
          return routing::CheapestPathMaxHops(topo, src, dst, cost, max_hops,
                                              Scratch().max_hops);
        }
        return routing::CheapestPath(topo, src, dst, cost,
                                     Scratch().dijkstra);
      });
}

namespace detail {

std::optional<routing::Path> SelectBackupLsrWith(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, Bandwidth bw, bool deterministic,
    std::span<const routing::Path> avoid, CvScoring scoring,
    SrlgMode srlg_mode, BackupSearchFn search) {
  const int words = (topo.num_links() + 63) / 64;
  const bool use_mask =
      deterministic && (scoring == CvScoring::kMask ||
                        (scoring == CvScoring::kAuto &&
                         words <= kCvMaskMaxWords));
  LsrScratch& scratch = Scratch();
  scratch.Prepare(topo.num_links(), use_mask ? words : 0);
  for (LinkId l : primary) {
    if (use_mask) {
      scratch.primary_mask[static_cast<std::size_t>(l) / 64] |=
          std::uint64_t{1} << (static_cast<unsigned>(l) % 64);
    }
    scratch.Shun(l);
  }
  for (const routing::Path& path : avoid) {
    for (LinkId l : path.links()) scratch.Shun(l);
  }
  // Risk groups the primary traverses. Empty (untagged topology, untagged
  // primary, or srlg_mode off) disables every SRLG term below, so those
  // runs execute the base schemes' exact arithmetic.
  scratch.primary_srlgs.clear();
  if (srlg_mode != SrlgMode::kOff && topo.has_srlgs()) {
    for (LinkId l : primary) {
      const SrlgId g = topo.srlg(l);
      if (g != kInvalidSrlg) scratch.primary_srlgs.push_back(g);
    }
    std::sort(scratch.primary_srlgs.begin(), scratch.primary_srlgs.end());
    scratch.primary_srlgs.erase(std::unique(scratch.primary_srlgs.begin(),
                                            scratch.primary_srlgs.end()),
                                scratch.primary_srlgs.end());
  }
  const bool srlg_aware = !scratch.primary_srlgs.empty();

  const auto cost = [&](LinkId l) {
    const lsdb::LinkRecord& rec = db.record(l);
    if (!rec.up) return routing::kInfiniteCost;
    if (srlg_aware) {
      const SrlgId g = topo.srlg(l);
      if (g != kInvalidSrlg &&
          std::binary_search(scratch.primary_srlgs.begin(),
                             scratch.primary_srlgs.end(), g)) {
        // This link fails together with the primary.
        if (srlg_mode == SrlgMode::kHard) return routing::kInfiniteCost;
        // kSoft: usable, but only when nothing group-disjoint exists.
      }
    }
    // Eq. 5's conflict count, by whichever access pattern fits the width:
    // one AND+popcount sweep over the mask (~64 links per instruction) or
    // |LSET| bit probes — the same exact integer either way.
    double c = deterministic
                   ? static_cast<double>(
                         use_mask ? rec.cv.AndPopCount(scratch.primary_mask)
                                  : rec.cv.CountIn(primary))
                   : static_cast<double>(rec.aplv_l1);
    if (srlg_aware) {
      const SrlgId g = topo.srlg(l);
      if (g != kInvalidSrlg &&
          std::binary_search(scratch.primary_srlgs.begin(),
                             scratch.primary_srlgs.end(), g)) {
        c += kSrlgPenalty;
      }
      // Advertised exposure of the primary's groups on this link: prefer
      // links whose risk groups protect fewer of the same primaries.
      c += static_cast<double>(rec.srlg_aplv.SumOver(scratch.primary_srlgs));
    }
    c += kEpsilon;
    if (scratch.Shunned(l) || rec.available_for_backup < bw) {
      c += kPenaltyQ;
    }
    return c;
  };
  return search(cost);
}

}  // namespace detail

int ProtectConnection(RoutingScheme& scheme, DrtpNetwork& net,
                      const lsdb::LinkStateDb& db, ConnId id, int count) {
  const DrConnection* conn = net.Find(id);
  DRTP_CHECK_MSG(conn != nullptr, "no connection " << id);
  int registered = 0;
  while (static_cast<int>(conn->backups.size()) < count) {
    auto backup = scheme.SelectBackupFor(net, db, conn->primary, conn->bw,
                                         conn->backups);
    if (!backup.has_value()) break;
    // The Q penalty is soft; a candidate that still overlaps the primary
    // or an existing backup means no further disjoint route exists — stop
    // rather than register a useless overlay (an own-backup overlap would
    // also be rejected by RegisterBackup).
    bool disjoint = backup->LinkDisjoint(conn->primary);
    for (const routing::Path& existing : conn->backups) {
      if (!disjoint) break;
      if (!existing.LinkDisjoint(*backup)) disjoint = false;
    }
    if (!disjoint) break;
    net.RegisterBackup(id, *backup);
    ++registered;
  }
  return registered;
}

}  // namespace drtp::core
