// Per-router DR-connection manager (§2.2, §5).
//
// Each router runs one manager that keeps, for every *outgoing* link (one
// LinkId-indexed ManagedLink record in the network's table):
//   - the link's APLV (updated from the primary LSETs carried in
//     backup-path register/release packets),
//   - the backup channel table (which backups traverse the link),
//   - the spare-resource policy: keep spare_bw >= max_j demand[j] — the
//     bandwidth-weighted form of §5's max(APLV) × bw rule — so any single
//     link failure can activate every affected backup; grow the pool from
//     free bandwidth when possible, accept overbooking when not (§5
//     choice (2)), and shrink/return bandwidth as backups or conflicting
//     primaries depart.
//
// No manager ever sees another link's APLV — routing uses the *advertised*
// abridgements (||APLV||_1 or the Conflict Vector) from the link-state
// database, exactly as the paper prescribes for scalability.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "drtp/messages.h"
#include "lsdb/aplv.h"
#include "lsdb/count_vector.h"
#include "lsdb/srlg_vector.h"
#include "net/bandwidth_ledger.h"
#include "net/topology.h"

namespace drtp::core {

/// How spare bandwidth is provisioned for backups.
enum class SpareMode {
  /// Paper's scheme: pool sized by max(APLV), shared by multiplexing.
  kMultiplexed,
  /// Ablation X3: one dedicated slot per backup (no sharing).
  kDedicated,
};

/// Bandwidth-weighted companion to the APLV: element j is the backup
/// bandwidth that would activate on this link if link L_j failed. The §5
/// sizing rule generalizes from `max(APLV) × bw` (identical-bandwidth
/// connections, the paper's simplification) to `max_j demand[j]` for
/// heterogeneous bandwidths. Built as DemandVector(num_links, num_links).
using DemandVector = lsdb::CountVector<Bandwidth>;

/// A link's backup channel table: which backups are registered on it, with
/// the bandwidth and primary LSET each registered. Flat and sorted by
/// connection id; the LSETs sit end to end in one arena, so registering or
/// releasing a hop allocates nothing once the vectors have grown.
class BackupTable {
 public:
  int size() const { return static_cast<int>(ids_.size()); }

  /// The registered connection ids, ascending: the link's backup reverse
  /// index (DrtpNetwork::BackupConnsOn).
  std::span<const ConnId> ids() const { return ids_; }

  /// Index of `id`'s entry, or -1.
  int Find(ConnId id) const;

  /// Adds `id` with a copy of `lset` in the arena; false, and no change,
  /// when `id` is already present.
  bool Insert(ConnId id, Bandwidth bw, const routing::LinkSet& lset);

  /// Removes entry `i`.
  void Erase(int i);

  Bandwidth bw(int i) const { return bws_[static_cast<std::size_t>(i)]; }
  std::span<const LinkId> lset(int i) const;

 private:
  std::uint32_t Begin(std::size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }

  std::vector<ConnId> ids_;  // ascending
  std::vector<Bandwidth> bws_;
  /// Entry i's LSET is lsets_[ends_[i-1], ends_[i]) (from 0 when i == 0).
  std::vector<std::uint32_t> ends_;
  std::vector<LinkId> lsets_;
};

/// State the manager keeps per owned (outgoing) link.
struct ManagedLink {
  lsdb::Aplv aplv;
  DemandVector demand;
  /// Per-SRLG aggregate of the APLV (element g = Σ_{j ∈ SRLG g} aplv[j]),
  /// maintained alongside it and advertised for the SRLG-aware schemes.
  /// Default (zero groups) on untagged topologies — no extra work there.
  lsdb::SrlgVector srlg_aplv;
  /// Sum of the bandwidths of all backups on the link (dedicated-spare
  /// mode's target).
  Bandwidth total_backup_bw = 0;
  BackupTable backups;
};

/// One empty ManagedLink per link of `topo`, indexed by LinkId. A network
/// keeps one such table; each record is read and written only through the
/// manager of the link's source router.
std::vector<ManagedLink> MakeLinkTable(const net::Topology& topo);

/// One router's DR-connection manager.
class DrConnectionManager {
 public:
  /// `links` is a LinkId-indexed table (MakeLinkTable) that outlives the
  /// manager; the manager touches only the records of its out-links.
  DrConnectionManager(NodeId node, const net::Topology& topo,
                      net::BandwidthLedger& ledger, SpareMode mode,
                      std::span<ManagedLink> links);

  NodeId node() const { return node_; }

  /// Handles one hop of a backup-path register packet: updates the APLV
  /// from the primary's LSET, records the backup, and reconciles the spare
  /// pool. `link` must be an outgoing link of this router. Registration
  /// never fails — when the pool cannot grow, the backup is multiplexed
  /// over existing spares (§5 choice (2)) and the hop reports overbooked.
  /// Returns true when the spare pool fully covers the post-registration
  /// target (i.e., not overbooked).
  bool RegisterBackupHop(LinkId link, const BackupRegisterPacket& packet);

  /// Handles one hop of a backup-path release packet (inverse of
  /// RegisterBackupHop); shrinks the spare pool to the new target.
  /// Returns true when the pool was below its target before the release
  /// and meets the new one, i.e. the link is no longer overbooked.
  bool ReleaseBackupHop(LinkId link, const BackupReleasePacket& packet);

  /// Re-evaluates the spare pool of `link` against its target; called when
  /// free bandwidth reappears (e.g., a primary on this link terminated,
  /// §5 last paragraph). Returns true when the pool meets the target.
  bool ReconcileSpare(LinkId link) { return Reconcile(link, Owned(link)); }

  /// The spare bandwidth this link *should* hold for its backups.
  Bandwidth SpareTarget(LinkId link) const { return Target(Owned(link)); }

  /// True when the link currently holds less spare than its target.
  bool IsOverbooked(LinkId link) const;

  const lsdb::Aplv& aplv(LinkId link) const { return Owned(link).aplv; }
  const ManagedLink& managed(LinkId link) const { return Owned(link); }

  /// Number of backups registered on the link.
  int BackupCount(LinkId link) const { return Owned(link).backups.size(); }

 private:
  const ManagedLink& Owned(LinkId link) const;
  ManagedLink& Owned(LinkId link) {
    return const_cast<ManagedLink&>(std::as_const(*this).Owned(link));
  }
  Bandwidth Target(const ManagedLink& ml) const;
  bool Reconcile(LinkId link, const ManagedLink& ml);

  NodeId node_;
  /// For SrlgVector maintenance (LinkId -> SrlgId lookups). SRLGs must be
  /// assigned before the manager is built; later AssignSrlg calls would
  /// desynchronize the aggregates.
  const net::Topology* topo_;
  net::BandwidthLedger& ledger_;
  SpareMode mode_;
  std::span<ManagedLink> links_;  // indexed by LinkId
};

}  // namespace drtp::core
