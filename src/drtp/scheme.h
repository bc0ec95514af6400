// RoutingScheme — the interface the paper's three schemes implement.
//
// A scheme answers one question: given a DR-connection request (src, dst,
// bw) and the information it is allowed to see, which primary and backup
// routes should be used? Link-state schemes see only the advertised
// LinkStateDb; bounded flooding sees the per-node authoritative bandwidth
// (it is on-demand — the flooded CDPs sample real state, §4).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/error.h"
#include "common/types.h"
#include "drtp/network.h"
#include "lsdb/link_state_db.h"
#include "routing/dijkstra.h"
#include "routing/path.h"

namespace drtp::core {

/// Outcome of route discovery for one request.
struct RouteSelection {
  /// Absent => the request is blocked (no feasible primary).
  std::optional<routing::Path> primary;
  /// Absent => the connection runs unprotected (only baselines do this on
  /// purpose; the paper's schemes always produce some backup when a path
  /// exists).
  std::optional<routing::Path> backup;

  /// Control-plane cost of this discovery: messages sent (CDP forwards for
  /// BF; zero for link-state schemes whose cost is the periodic
  /// advertisement traffic) and their bytes.
  std::int64_t control_messages = 0;
  std::int64_t control_bytes = 0;
};

class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;

  virtual std::string name() const = 0;

  /// False for the unprotected baseline; the simulator then skips backup
  /// registration entirely.
  virtual bool wants_backup() const { return true; }

  /// Discovers primary and backup routes for a request. `db` is the
  /// advertised link-state view; `net` is the authoritative state, which
  /// only on-demand schemes (BF) may consult, and then only for what a
  /// real node could observe locally.
  virtual RouteSelection SelectRoutes(const DrtpNetwork& net,
                                      const lsdb::LinkStateDb& db, NodeId src,
                                      NodeId dst, Bandwidth bw) = 0;

  /// Re-discovers a backup for an *existing* primary — DRTP step 4
  /// (resource reconfiguration) after a failover consumed the backup or a
  /// failure broke it, and the building block for multi-backup
  /// connections. Routes in `avoid` (typically the connection's other
  /// backups) are shunned like the primary itself. Default: unsupported
  /// (nullopt).
  virtual std::optional<routing::Path> SelectBackupFor(
      const DrtpNetwork& net, const lsdb::LinkStateDb& db,
      const routing::Path& primary, Bandwidth bw,
      std::span<const routing::Path> avoid = {});

  /// Called after a link goes down or comes back up. Schemes holding
  /// topology-derived caches (BF's distance tables, §4.1) refresh them
  /// here; stateless schemes ignore it.
  virtual void OnTopologyChanged(const DrtpNetwork& net) { (void)net; }

  /// Scheme-private *history* state for daemon snapshots (drtp.snap/1):
  /// RNG stream positions and the like — anything a byte-identical
  /// continuation needs that is not a pure function of the current
  /// network. Topology-derived caches (BF's distance tables) are NOT
  /// state; they are rebuilt via OnTopologyChanged. Stateless schemes
  /// (the default) return "".
  virtual std::string SaveState() const { return {}; }

  /// Restores SaveState() output. The default accepts only the empty
  /// string — feeding state to a stateless scheme means the snapshot was
  /// written under a different scheme.
  virtual void LoadState(const std::string& state) {
    if (!state.empty()) {
      throw ParseError("scheme '" + name() + "' carries no state, got " +
                       std::to_string(state.size()) + " bytes");
    }
  }

  /// True when the scheme *promises* SRLG-disjoint backups (hard-mode
  /// SRLG variants). Auditors use this to arm the backup_shares_srlg
  /// invariant; soft-mode variants only bias away from shared groups and
  /// must not arm it.
  virtual bool requires_srlg_disjoint_backup() const { return false; }
};

/// How backup selection treats links sharing a risk group with the
/// primary (§"SRLG-disjoint routing"): kOff ignores SRLGs entirely (the
/// paper's original schemes), kSoft penalizes shared-group links like a
/// second Q term so they are used only as a last resort, kHard forbids
/// them outright — a backup then either avoids every primary SRLG or does
/// not exist.
enum class SrlgMode {
  kOff,
  kSoft,
  kHard,
};

/// How D-LSR's Eq. 5 conflict term is evaluated per candidate link.
/// Both strategies compute the same exact integer (hence the same cost,
/// hence the same route); they differ only in access pattern.
enum class CvScoring {
  /// Pick by width: the word-wise mask sweep up to kCvMaskMaxWords words,
  /// the per-bit probe beyond that.
  kAuto,
  /// cv.AndPopCount against the primary's precomputed bitmask — O(words)
  /// per candidate, ~64 links per instruction. Wins when the whole mask
  /// fits in a few cache lines (paper-scale graphs).
  kMask,
  /// cv.CountIn over the primary's LSET — O(|LSET|) probes per candidate,
  /// independent of network width. Wins on wide graphs where a full-width
  /// mask sweep would stream kilobytes per candidate.
  kSparse,
};

/// kAuto switches from kMask to kSparse above this many 64-bit mask words
/// (16 words = 1024 links — the mask still fits in two cache lines' worth
/// of reads per candidate at that point, and a 60-node run stays on the
/// exact pre-hybrid code path).
inline constexpr int kCvMaskMaxWords = 16;

/// Backup selection shared by the two link-state schemes: Dijkstra over
/// Eq. 4 (deterministic == false, cost ||APLV||_1) or Eq. 5
/// (deterministic == true, cost Σ c_{i,j} over the primary's LSET).
/// Links of `avoid` routes are penalized like the primary's own links.
/// max_hops > 0 restricts the search to QoS-feasible (delay-bounded)
/// backups (§2: a backup longer than the QoS allows protects nothing);
/// 0 means unbounded.
/// `srlg_mode` layers the SRLG discipline on top: links sharing a group
/// with the primary are priced out (kHard) or penalized by kSrlgPenalty
/// (kSoft), and both modes add the advertised per-SRLG exposure of the
/// primary's groups so ties break toward links whose groups carry fewer
/// of the same primaries. On an untagged topology (or an untagged
/// primary) every mode degenerates to the exact base arithmetic.
std::optional<routing::Path> SelectBackupLsr(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, NodeId src, NodeId dst, Bandwidth bw,
    bool deterministic, std::span<const routing::Path> avoid = {},
    int max_hops = 0, CvScoring scoring = CvScoring::kAuto,
    SrlgMode srlg_mode = SrlgMode::kOff);

/// Registers up to `count` pairwise-disjoint backups for the connection's
/// primary using scheme.SelectBackupFor, stopping early when no further
/// disjoint backup exists. Returns how many were registered.
int ProtectConnection(RoutingScheme& scheme, DrtpNetwork& net,
                      const lsdb::LinkStateDb& db, ConnId id, int count);

/// Shared helper: minimum-hop primary over links advertising enough free
/// bandwidth (used by both LSR schemes; §2.2 step 1). Runs the
/// level-synchronous BFS (routing::MinHopPathWith) with the bandwidth test
/// inlined, stopping when the destination is discovered — the identical
/// route Dijkstra over unit costs picks.
std::optional<routing::Path> SelectPrimaryMinHop(const net::Topology& topo,
                                                 const lsdb::LinkStateDb& db,
                                                 NodeId src, NodeId dst,
                                                 Bandwidth bw);

namespace detail {
/// A route search over a backup cost (see SelectBackupLsrWith).
using BackupSearchFn =
    FunctionRef<std::optional<routing::Path>(routing::LinkCostFn)>;

/// SelectBackupLsr with the search handed in: builds the same per-request
/// Eq. 4/5 cost SelectBackupLsr searches and returns `search(cost)`.
/// SelectBackupLsr itself runs the Dijkstra kernel instantiated on that
/// cost; differential tests pass a reference search and compare routes.
std::optional<routing::Path> SelectBackupLsrWith(
    const net::Topology& topo, const lsdb::LinkStateDb& db,
    const routing::LinkSet& primary, Bandwidth bw, bool deterministic,
    std::span<const routing::Path> avoid, CvScoring scoring,
    SrlgMode srlg_mode, BackupSearchFn search);
}  // namespace detail

/// Large-but-finite penalty for disqualified links (Eq. 4/5's Q): a
/// penalized link can still be used when nothing better exists, mirroring
/// §5's decision to accept imperfect backups rather than reject.
inline constexpr double kPenaltyQ = 1e7;

/// Tie-break toward shorter routes (Eq. 4/5's epsilon, < 1).
inline constexpr double kEpsilon = 1e-3;

/// Soft-mode SRLG penalty: dominates any realistic conflict count (so a
/// group-sharing link loses to every clean alternative) while staying
/// below kPenaltyQ (so sharing a risk group is still preferred over
/// reusing a primary link or an out-of-bandwidth one).
inline constexpr double kSrlgPenalty = 1e6;

}  // namespace drtp::core
