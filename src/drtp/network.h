// DrtpNetwork — the authoritative network state for DRTP.
//
// Owns the topology, the per-link bandwidth ledger, one DR-connection
// manager per router, the connection table, and link up/down state. The
// four steps of DR-connection management (§2.2) map to:
//   1. EstablishConnection  — reserve the primary route's bandwidth,
//   2/3. RegisterBackup     — walk the backup route hop-by-hop with a
//                             backup-path register packet (APLV + spares),
//   4. ReleaseConnection    — return every resource; freed bandwidth is
//                             offered to still-underprovisioned spare
//                             pools (§5 last paragraph).
// Failure handling (ActivateBackup / failure.h) implements DRTP steps
// "failure reporting and channel switching" and "resource reconfiguration".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "drtp/connection.h"
#include "drtp/manager.h"
#include "lsdb/link_state_db.h"
#include "net/bandwidth_ledger.h"
#include "net/topology.h"

namespace drtp::core {

struct NetworkConfig {
  SpareMode spare_mode = SpareMode::kMultiplexed;
  /// When true, failing a link also fails its reverse half (fiber-cut
  /// model); the paper's examples treat unidirectional failures, the
  /// default here.
  bool duplex_failures = false;
};

class DrtpNetwork {
 public:
  explicit DrtpNetwork(net::Topology topo, NetworkConfig config = {});

  DrtpNetwork(const DrtpNetwork&) = delete;
  DrtpNetwork& operator=(const DrtpNetwork&) = delete;

  const net::Topology& topology() const { return topo_; }
  const net::BandwidthLedger& ledger() const { return ledger_; }
  const NetworkConfig& config() const { return config_; }

  // ---- link state -------------------------------------------------------

  bool IsLinkUp(LinkId l) const {
    DRTP_CHECK(l >= 0 && l < topo_.num_links());
    return link_up_[static_cast<std::size_t>(l)] != 0;
  }
  /// Marks the link (and, under duplex_failures, its reverse) down. Does
  /// not touch connections — that is the failure engine's job. Idempotent.
  void SetLinkDown(LinkId l);
  void SetLinkUp(LinkId l);
  /// Links currently down, ascending (maintained incrementally).
  const std::vector<LinkId>& down_links() const { return down_links_; }

  // ---- connection management -------------------------------------------

  /// Step 1: reserves `bw` of primary bandwidth on every link of
  /// `primary`, all-or-nothing; records the connection. Fails (false, no
  /// state change) if any link is down or lacks free bandwidth, or the id
  /// is already in use is a programming error (checked).
  [[nodiscard]] bool EstablishConnection(ConnId id,
                                         const routing::Path& primary,
                                         Bandwidth bw, Time now);

  /// Steps 2–3: sends the backup-path register packet hop-by-hop along
  /// `backup` and appends it to the connection's backup list. Never
  /// rejects (overbooking is accepted per §5); returns the number of hops
  /// left overbooked. The new backup must not share links with the
  /// connection's existing backups (checked) — §2's "one or more backup
  /// channels" are alternatives, not overlays.
  int RegisterBackup(ConnId id, const routing::Path& backup);

  /// Releases the backup at `index` in the connection's list (used when a
  /// failure breaks one backup of several).
  void ReleaseBackupAt(ConnId id, std::size_t index);

  /// Step 4: releases every resource of the connection and erases it.
  void ReleaseConnection(ConnId id);

  /// Channel switching (DRTP step 3): promotes the backup at `index` to
  /// be the new primary. The old primary's bandwidth is released, every
  /// backup deregistered (their registrations referenced the old
  /// primary's LSET), and primary bandwidth reserved along the promoted
  /// route — drawing on the spare pool (possibly leaving other backups
  /// overbooked) when free bandwidth alone does not suffice. Returns
  /// false — with the connection dropped and its resources released — if
  /// even that fails.
  [[nodiscard]] bool ActivateBackup(ConnId id, std::size_t index, Time now);

  /// Convenience: promote the preferred (first) backup.
  [[nodiscard]] bool ActivateBackup(ConnId id, Time now) {
    return ActivateBackup(id, 0, now);
  }

  // ---- queries ----------------------------------------------------------

  const DrConnection* Find(ConnId id) const;
  const std::map<ConnId, DrConnection>& connections() const {
    return conns_;
  }
  int ActiveCount() const { return static_cast<int>(conns_.size()); }

  DrConnectionManager& manager(NodeId n);
  const DrConnectionManager& manager(NodeId n) const;

  /// APLV of link `l`, as held by its owning router.
  const lsdb::Aplv& aplv(LinkId l) const;

  /// Demand vector of link `l` (element j: the backup bandwidth failing
  /// L_j would activate on l), as held by its owning router. Read-only,
  /// so unlike the non-const manager() it marks nothing dirty.
  const DemandVector& demand(LinkId l) const;

  /// Link → connection reverse indexes: the ids, ascending, of the
  /// connections whose primary (§2.1 PSET, keyed by connection) or backup
  /// route traverses `l`. The failure engine walks these instead of
  /// scanning every connection per link. The backup index is the link's
  /// backup table itself. Invalidated by any connection mutation.
  std::span<const ConnId> PrimaryConnsOn(LinkId l) const;
  std::span<const ConnId> BackupConnsOn(LinkId l) const;

  /// Links whose spare pool is below target (overbooked), ascending.
  std::vector<LinkId> OverbookedLinks() const {
    return {overbooked_.begin(), overbooked_.end()};
  }

  // ---- link-state advertisement ------------------------------------------

  /// Publishes the current advertisements (APLV abridgements + bandwidth)
  /// into `db`, stamping the refresh time. Down links advertise zero
  /// bandwidth so no route selection uses them.
  ///
  /// Incremental: the network tracks which links changed (bandwidth-ledger
  /// deltas, APLV touches, up/down flips) since the last publication, and
  /// when `db` provably received every prior publication (checked via its
  /// publish stamp) only the dirty records are rewritten, in place, with
  /// no allocation. Any other database — fresh, foreign, or behind —
  /// gets a full republish. The result is byte-identical to PublishFullTo
  /// (asserted in debug builds).
  void PublishTo(lsdb::LinkStateDb& db, Time now) const;

  /// Unconditionally rewrites every record — the periodic-refresh path,
  /// the reference for the equivalence tests, and the recovery hatch for
  /// externally mutated databases.
  void PublishFullTo(lsdb::LinkStateDb& db, Time now) const;

  /// Rebuilds every APLV from the connection table and asserts it matches
  /// the managers' incremental state, checks ledger invariants and the
  /// spare-pool property (spare == target unless free bandwidth is
  /// exhausted). Test/debug hook; throws CheckError on violation.
  void CheckConsistency() const;

 private:
  /// Releases every hop of `backup`, one of `conn`'s backups, without
  /// removing it from conn.backups; each hop settles its own listing.
  void ReleaseBackupHops(const DrConnection& conn,
                         const routing::Path& backup);
  /// Reconciles those of `links` that are listed overbooked, unlisting
  /// the ones that now meet their targets.
  void ReconcileListed(std::span<const LinkId> links);
  /// Debug builds: every listed link has no free bandwidth and a pool
  /// below target. No-op under NDEBUG.
  void DebugCheckListed() const;

  /// The manager of `l`'s source router, without the public manager()'s
  /// conservative marking: every internal caller marks exactly the one
  /// link it changes.
  DrConnectionManager& OwnerOf(LinkId l);

  /// Records that link `l`'s advertised state changed since the last
  /// publication. Cheap (bitmap-deduplicated). Mark exactly: every extra
  /// mark costs a record rewrite at the next publish, and a missing mark
  /// is a staleness bug (caught by PublishTo's debug compare).
  void MarkDirty(LinkId l);
  void MarkLinkUpDown(LinkId l, bool up);
  /// Renders link `l`'s advertisement into `rec` in place (no allocation:
  /// the conflict vector is copy-assigned into existing capacity).
  void WriteRecordTo(lsdb::LinkRecord& rec, LinkId l) const;
  void IndexPrimary(ConnId id, const routing::LinkSet& lset);
  void UnindexPrimary(ConnId id, const routing::LinkSet& lset);

  net::Topology topo_;
  NetworkConfig config_;
  net::BandwidthLedger ledger_;
  /// Per-link protection state (APLV, demand, backup table), indexed by
  /// LinkId; each record belongs to the manager of the link's source.
  std::vector<ManagedLink> links_;
  std::vector<DrConnectionManager> managers_;  // indexed by NodeId
  std::map<ConnId, DrConnection> conns_;
  std::vector<char> link_up_;
  /// Links currently down, ascending (mirror of link_up_).
  std::vector<LinkId> down_links_;
  /// Links whose spare pool could not reach target; each is reconciled
  /// when a release frees bandwidth on it.
  std::set<LinkId> overbooked_;

  /// Link → primary-connection reverse index (ids ascending), indexed by
  /// LinkId. The backup index is the per-link backup table (links_).
  std::vector<std::vector<ConnId>> primary_conns_;

  // ---- dirty-link tracking for incremental publication ------------------
  // Mutable: PublishTo is logically const (it renders state, the network
  // does not change) but consumes the dirty set and advances the stamp.
  mutable std::vector<LinkId> dirty_links_;
  mutable std::vector<char> dirty_flag_;  // dedup bitmap for dirty_links_
  mutable std::uint64_t publish_seq_ = 0;
};

}  // namespace drtp::core
