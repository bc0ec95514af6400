#include "drtp/scheme.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "lsdb/conflict_vector.h"
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

/// The Eq. 4/5 term a backup cost reads per link: ||APLV||_1 (P-LSR), or
/// D-LSR's conflict count by the mask sweep or by LSET probes.
enum class Term { kAplv, kMask, kSparse };

/// One request's Eq. 4/5 backup cost, as a type the search kernel is
/// instantiated on: the record read, the conflict term, the SRLG terms,
/// the shun and the Q/ε terms compile into the relaxation loop.
template <Term kTerm>
struct BackupCost {
  const net::Topology& topo;
  const lsdb::LinkStateDb& db;
  const LsrScratch& scratch;
  const routing::LinkSet& primary;
  Bandwidth bw;
  SrlgMode srlg_mode;
  /// The primary has risk groups (scratch.primary_srlgs is not empty).
  /// False leaves the base schemes' exact arithmetic.
  bool srlg_aware;

  [[gnu::always_inline]] double operator()(LinkId l) const {
    const lsdb::LinkRecord& rec = db.record(l);
    if (!rec.up) return routing::kInfiniteCost;
    bool shares_group = false;
    if (srlg_aware) {
      const SrlgId g = topo.srlg(l);
      // This link fails together with the primary: kHard forbids it,
      // kSoft leaves it usable only when nothing group-disjoint exists.
      shares_group = g != kInvalidSrlg &&
                     std::binary_search(scratch.primary_srlgs.begin(),
                                        scratch.primary_srlgs.end(), g);
      if (shares_group && srlg_mode == SrlgMode::kHard) {
        return routing::kInfiniteCost;
      }
    }
    // Eq. 5's conflict count, by whichever access pattern fits the width:
    // one AND+popcount sweep over the mask (~64 links per instruction) or
    // |LSET| bit probes — the same exact integer either way.
    double c;
    if constexpr (kTerm == Term::kAplv) {
      c = static_cast<double>(rec.aplv_l1);
    } else if constexpr (kTerm == Term::kMask) {
      c = static_cast<double>(rec.cv.AndPopCountInline(scratch.primary_mask));
    } else {
      c = static_cast<double>(rec.cv.CountIn(primary));
    }
    if (srlg_aware) {
      if (shares_group) c += kSrlgPenalty;
      // Advertised exposure of the primary's groups on this link: prefer
      // links whose risk groups protect fewer of the same primaries.
      c += static_cast<double>(rec.srlg_aplv.SumOver(scratch.primary_srlgs));
    }
    c += kEpsilon;
    if (scratch.Shunned(l) || rec.available_for_backup < bw) {
      c += kPenaltyQ;
    }
    return c;
  }
};

/// Fills the scratch for one request (primary mask, shunned links, the
/// primary's risk groups) and returns `fn(cost)` for its Eq. 4/5 cost.
template <typename Fn>
std::optional<routing::Path> WithBackupCost(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, Bandwidth bw, bool deterministic,
    std::span<const routing::Path> avoid, CvScoring scoring,
    SrlgMode srlg_mode, Fn&& fn) {
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
  // primary, or srlg_mode off) disables every SRLG term of the cost.
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
  if (!deterministic) {
    return fn(BackupCost<Term::kAplv>{topo, db, scratch, primary, bw,
                                      srlg_mode, srlg_aware});
  }
  if (use_mask) {
    return fn(BackupCost<Term::kMask>{topo, db, scratch, primary, bw,
                                      srlg_mode, srlg_aware});
  }
  return fn(BackupCost<Term::kSparse>{topo, db, scratch, primary, bw,
                                      srlg_mode, srlg_aware});
}

/// The early-exit backup search on the kernel instantiated with `cost`.
template <typename Cost>
std::optional<routing::Path> SearchBackup(const net::Topology& topo,
                                          NodeId src, NodeId dst,
                                          const Cost& cost) {
  return routing::CheapestPathWith(topo, src, dst, cost, Scratch().dijkstra);
}

/// The mask-scored search, compiled once per DRTP_POPCNT_CLONES target so
/// the AND+popcount in its relaxation loop is the popcnt instruction
/// where the CPU has it.
DRTP_POPCNT_CLONES std::optional<routing::Path> SearchBackup(
    const net::Topology& topo, NodeId src, NodeId dst,
    const BackupCost<Term::kMask>& cost) {
  return routing::CheapestPathWith(topo, src, dst, cost, Scratch().dijkstra);
}

}  // namespace

std::optional<routing::Path> SelectPrimaryMinHop(const net::Topology& topo,
                                                 const lsdb::LinkStateDb& db,
                                                 NodeId src, NodeId dst,
                                                 Bandwidth bw) {
  return routing::MinHopPathWith(
      topo, src, dst,
      [&](LinkId l) {
        const lsdb::LinkRecord& rec = db.record(l);
        return rec.up && rec.free_for_primary >= bw;
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
  return WithBackupCost(
      topo, db, primary, bw, deterministic, avoid, scoring, srlg_mode,
      [&](const auto& cost) {
        if (max_hops > 0) {
          return routing::CheapestPathMaxHops(topo, src, dst, cost, max_hops,
                                              Scratch().max_hops);
        }
        return SearchBackup(topo, src, dst, cost);
      });
}

namespace detail {

std::optional<routing::Path> SelectBackupLsrWith(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, Bandwidth bw, bool deterministic,
    std::span<const routing::Path> avoid, CvScoring scoring,
    SrlgMode srlg_mode, BackupSearchFn search) {
  return WithBackupCost(topo, db, primary, bw, deterministic, avoid, scoring,
                        srlg_mode,
                        [&](const auto& cost) { return search(cost); });
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
