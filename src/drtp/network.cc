#include "drtp/network.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drtp::core {

DrtpNetwork::DrtpNetwork(net::Topology topo, NetworkConfig config)
    : topo_(std::move(topo)),
      config_(config),
      ledger_(topo_),
      links_(MakeLinkTable(topo_)),
      link_up_(static_cast<std::size_t>(topo_.num_links()), 1),
      primary_conns_(static_cast<std::size_t>(topo_.num_links())),
      dirty_flag_(static_cast<std::size_t>(topo_.num_links()), 0) {
  managers_.reserve(static_cast<std::size_t>(topo_.num_nodes()));
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    managers_.emplace_back(n, topo_, ledger_, config_.spare_mode, links_);
  }
  dirty_links_.reserve(static_cast<std::size_t>(topo_.num_links()));
}

void DrtpNetwork::MarkDirty(LinkId l) {
  auto& flag = dirty_flag_[static_cast<std::size_t>(l)];
  if (!flag) {
    flag = 1;
    dirty_links_.push_back(l);
  }
}

void DrtpNetwork::MarkLinkUpDown(LinkId l, bool up) {
  auto& state = link_up_[static_cast<std::size_t>(l)];
  if ((state != 0) == up) return;
  state = up ? 1 : 0;
  auto it = std::lower_bound(down_links_.begin(), down_links_.end(), l);
  if (up) {
    down_links_.erase(it);
  } else {
    down_links_.insert(it, l);
  }
  MarkDirty(l);
}

void DrtpNetwork::SetLinkDown(LinkId l) {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  MarkLinkUpDown(l, false);
  if (config_.duplex_failures) {
    const LinkId rev = topo_.link(l).reverse;
    if (rev != kInvalidLink) MarkLinkUpDown(rev, false);
  }
}

void DrtpNetwork::SetLinkUp(LinkId l) {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  MarkLinkUpDown(l, true);
  if (config_.duplex_failures) {
    const LinkId rev = topo_.link(l).reverse;
    if (rev != kInvalidLink) MarkLinkUpDown(rev, true);
  }
}

// A connection's id enters each of its primary links' index once: ids are
// unique and a LinkSet holds each link once.
void DrtpNetwork::IndexPrimary(ConnId id, const routing::LinkSet& lset) {
  for (LinkId l : lset) {
    auto& v = primary_conns_[static_cast<std::size_t>(l)];
    v.insert(std::lower_bound(v.begin(), v.end(), id), id);
    MarkDirty(l);
  }
}

void DrtpNetwork::UnindexPrimary(ConnId id, const routing::LinkSet& lset) {
  for (LinkId l : lset) {
    auto& v = primary_conns_[static_cast<std::size_t>(l)];
    const auto it = std::lower_bound(v.begin(), v.end(), id);
    DRTP_CHECK(it != v.end() && *it == id);
    v.erase(it);
    MarkDirty(l);
  }
}

bool DrtpNetwork::EstablishConnection(ConnId id, const routing::Path& primary,
                                      Bandwidth bw, Time now) {
  DRTP_CHECK(bw > 0);
  const auto hint = conns_.lower_bound(id);
  DRTP_CHECK_MSG(hint == conns_.end() || hint->first != id,
                 "duplicate connection id " << id);
  // All-or-nothing reservation; a failure rolls back the route's prefix.
  const std::span<const LinkId> links = primary.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!IsLinkUp(links[i]) || !ledger_.ReservePrime(links[i], bw)) {
      for (LinkId r : links.first(i)) ledger_.ReleasePrime(r, bw);
      return false;
    }
  }
  const auto it = conns_.emplace_hint(
      hint, id,
      DrConnection{.id = id,
                   .src = primary.src(),
                   .dst = primary.dst(),
                   .bw = bw,
                   .primary = primary,
                   .primary_lset = primary.ToLinkSet(),
                   .backups = {},
                   .established_at = now,
                   .failovers = 0});
  IndexPrimary(id, it->second.primary_lset);
  return true;
}

int DrtpNetwork::RegisterBackup(ConnId id, const routing::Path& backup) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  DrConnection& conn = it->second;
  DRTP_CHECK(backup.src() == conn.src && backup.dst() == conn.dst);
  for (const routing::Path& existing : conn.backups) {
    DRTP_CHECK_MSG(existing.LinkDisjoint(backup),
                   "backups of connection " << id << " must be disjoint");
  }

  const BackupRegisterPacket packet{
      .conn_id = id, .bw = conn.bw, .primary_lset = conn.primary_lset};
  int overbooked_hops = 0;
  for (LinkId l : backup.links()) {
    if (!OwnerOf(l).RegisterBackupHop(l, packet)) {
      ++overbooked_hops;
      overbooked_.insert(l);
    }
    MarkDirty(l);
  }
  conn.backups.push_back(backup);
  return overbooked_hops;
}

// Releases reconcile only the links they touch. A link's Reconcile reads
// only its own ledger entry and demand vector, and a listed link has no
// free bandwidth, so it can meet its target again only through a release
// on that same link. Each released backup hop settles its own listing
// (ReleaseBackupHop reconciles it and reports when a pool that was short
// meets its target); callers reconcile the primary links they free or
// reserve.
void DrtpNetwork::ReleaseBackupHops(const DrConnection& conn,
                                    const routing::Path& backup) {
  const BackupReleasePacket packet{
      .conn_id = conn.id, .bw = conn.bw, .primary_lset = conn.primary_lset};
  for (LinkId l : backup.links()) {
    if (OwnerOf(l).ReleaseBackupHop(l, packet)) overbooked_.erase(l);
    MarkDirty(l);
  }
}

void DrtpNetwork::ReleaseBackupAt(ConnId id, std::size_t index) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  DrConnection& conn = it->second;
  DRTP_CHECK_MSG(index < conn.backups.size(),
                 "connection " << id << " has no backup #" << index);
  ReleaseBackupHops(conn, conn.backups[index]);
  conn.backups.erase(conn.backups.begin() +
                     static_cast<std::ptrdiff_t>(index));
  DebugCheckListed();
}

void DrtpNetwork::ReleaseConnection(ConnId id) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  const DrConnection& conn = it->second;
  for (const routing::Path& b : conn.backups) ReleaseBackupHops(conn, b);
  for (LinkId l : conn.primary.links()) ledger_.ReleasePrime(l, conn.bw);
  UnindexPrimary(id, conn.primary_lset);
  // §5: resources of a released primary are offered to spare pools that
  // could not previously reach their targets.
  ReconcileListed(conn.primary.links());
  conns_.erase(it);
  DebugCheckListed();
}

bool DrtpNetwork::ActivateBackup(ConnId id, std::size_t index, Time now) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  DrConnection& conn = it->second;
  DRTP_CHECK_MSG(index < conn.backups.size(),
                 "connection " << id << " has no backup #" << index
                               << " to activate");

  // Deregister every backup first: the registrations carried the *old*
  // primary's LSET and would go stale the moment the promotion lands; the
  // promoted route's own spare demand disappearing typically frees exactly
  // the bandwidth the promotion is about to claim. Step 4 (resource
  // reconfiguration) re-establishes protection afterwards.
  for (const routing::Path& b : conn.backups) ReleaseBackupHops(conn, b);
  routing::Path promoted = std::move(conn.backups[index]);
  conn.backups.clear();
  for (LinkId l : conn.primary.links()) ledger_.ReleasePrime(l, conn.bw);
  UnindexPrimary(id, conn.primary_lset);

  // Reserve along the promoted route, raiding spare pools if needed; a
  // failure rolls back the route's prefix.
  const std::span<const LinkId> links = promoted.links();
  std::size_t reserved = 0;
  for (; reserved < links.size(); ++reserved) {
    const LinkId l = links[reserved];
    if (!IsLinkUp(l) || !ledger_.ReservePrimeForced(l, conn.bw)) break;
    MarkDirty(l);
    if (OwnerOf(l).IsOverbooked(l)) overbooked_.insert(l);
  }
  const bool ok = reserved == links.size();
  if (!ok) {
    for (LinkId r : links.first(reserved)) ledger_.ReleasePrime(r, conn.bw);
  }
  ReconcileListed(conn.primary.links());
  ReconcileListed(links);
  if (ok) {
    conn.primary = std::move(promoted);
    conn.primary_lset = conn.primary.ToLinkSet();
    IndexPrimary(id, conn.primary_lset);
    conn.established_at = now;
    ++conn.failovers;
  } else {
    conns_.erase(it);  // unrecoverable: resources already released
  }
  DebugCheckListed();
  return ok;
}

const DrConnection* DrtpNetwork::Find(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

DrConnectionManager& DrtpNetwork::manager(NodeId n) {
  DRTP_CHECK(n >= 0 && n < topo_.num_nodes());
  // Handing out a mutable manager may change any of its out-links' APLVs
  // or spare pools; conservatively treat them all as touched.
  for (LinkId l : topo_.out_links(n)) MarkDirty(l);
  return managers_[static_cast<std::size_t>(n)];
}

DrConnectionManager& DrtpNetwork::OwnerOf(LinkId l) {
  return managers_[static_cast<std::size_t>(topo_.link(l).src)];
}

const DrConnectionManager& DrtpNetwork::manager(NodeId n) const {
  DRTP_CHECK(n >= 0 && n < topo_.num_nodes());
  return managers_[static_cast<std::size_t>(n)];
}

const lsdb::Aplv& DrtpNetwork::aplv(LinkId l) const {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  return links_[static_cast<std::size_t>(l)].aplv;
}

const DemandVector& DrtpNetwork::demand(LinkId l) const {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  return links_[static_cast<std::size_t>(l)].demand;
}

std::span<const ConnId> DrtpNetwork::PrimaryConnsOn(LinkId l) const {
  DRTP_DCHECK(l >= 0 && l < topo_.num_links());
  return primary_conns_[static_cast<std::size_t>(l)];
}

std::span<const ConnId> DrtpNetwork::BackupConnsOn(LinkId l) const {
  DRTP_DCHECK(l >= 0 && l < topo_.num_links());
  return links_[static_cast<std::size_t>(l)].backups.ids();
}

void DrtpNetwork::WriteRecordTo(lsdb::LinkRecord& rec, LinkId l) const {
  const ManagedLink& ml = links_[static_cast<std::size_t>(l)];
  rec.aplv_l1 = ml.aplv.L1();
  rec.cv = ml.aplv.conflict_vector();
  // Unconditional (even on untagged topologies, where it is an empty
  // copy): the incremental-publish debug compare relies on every field
  // being written.
  rec.srlg_aplv = ml.srlg_aplv;
  const bool up = IsLinkUp(l);
  rec.up = up;
  if (up) {
    rec.available_for_backup = ledger_.spare(l) + ledger_.free(l);
    rec.free_for_primary = ledger_.free(l);
  } else {
    rec.available_for_backup = 0;
    rec.free_for_primary = 0;
  }
}

void DrtpNetwork::PublishTo(lsdb::LinkStateDb& db, Time now) const {
  DRTP_CHECK(db.num_links() == topo_.num_links());
  const bool incremental =
      db.publisher() == this && db.publish_seq() == publish_seq_;
  if (incremental) {
    // Counter only: at ~tens of ns per call a scoped timer would cost
    // more than the kernel it measures (see docs/OBSERVABILITY.md).
    static const obs::Counter publishes =
        obs::GetCounter("drtp.lsdb.publish_incremental");
    publishes.Add();
    for (LinkId l : dirty_links_) WriteRecordTo(db.record(l), l);
#ifndef NDEBUG
    // The incremental path must be indistinguishable from a full rewrite.
    for (LinkId l = 0; l < topo_.num_links(); ++l) {
      lsdb::LinkRecord full;
      WriteRecordTo(full, l);
      DRTP_CHECK_MSG(db.record(l) == full,
                     "incremental publish diverged on link " << l);
    }
#endif
  } else {
    for (LinkId l = 0; l < topo_.num_links(); ++l) {
      WriteRecordTo(db.record(l), l);
    }
  }
  db.set_last_refresh(now);
  ++publish_seq_;
  db.SetPublishStamp(this, publish_seq_);
  for (LinkId l : dirty_links_) dirty_flag_[static_cast<std::size_t>(l)] = 0;
  dirty_links_.clear();
}

void DrtpNetwork::PublishFullTo(lsdb::LinkStateDb& db, Time now) const {
  // Sampled 1-in-8: a ~2.5µs kernel where full-span clock reads would eat
  // a few percent — the counter still records every publication.
  DRTP_OBS_SPAN_SAMPLED("drtp.kernel.publish_full", 3);
  static const obs::Counter publishes =
      obs::GetCounter("drtp.lsdb.publish_full");
  publishes.Add();
  DRTP_CHECK(db.num_links() == topo_.num_links());
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    WriteRecordTo(db.record(l), l);
  }
  db.set_last_refresh(now);
  ++publish_seq_;
  db.SetPublishStamp(this, publish_seq_);
  for (LinkId l : dirty_links_) dirty_flag_[static_cast<std::size_t>(l)] = 0;
  dirty_links_.clear();
}

void DrtpNetwork::ReconcileListed(std::span<const LinkId> links) {
  for (LinkId l : links) {
    // Listed exactly when below target, so the pool test stands in for a
    // lookup in overbooked_.
    DrConnectionManager& owner = OwnerOf(l);
    if (!owner.IsOverbooked(l)) continue;
    const Bandwidth spare = ledger_.spare(l);
    if (owner.ReconcileSpare(l)) overbooked_.erase(l);
    if (ledger_.spare(l) != spare) MarkDirty(l);
  }
}

void DrtpNetwork::DebugCheckListed() const {
#ifndef NDEBUG
  for (LinkId l : overbooked_) {
    DRTP_CHECK_MSG(
        ledger_.free(l) == 0 && manager(topo_.link(l).src).IsOverbooked(l),
        "listed overbooked link " << l << " is reconcilable");
  }
#endif
}

void DrtpNetwork::CheckConsistency() const {
  ledger_.CheckInvariants();
  // Rebuild every link's protection counts and reverse indexes from the
  // connection table. The ids come out ascending, and each backup id once
  // per link: a connection's backups are pairwise link-disjoint.
  const auto n = static_cast<std::size_t>(topo_.num_links());
  std::vector<ManagedLink> expected = MakeLinkTable(topo_);
  std::vector<std::vector<ConnId>> expect_primary(n), expect_backup(n);
  const auto srlg_of = [&](LinkId j) { return topo_.srlg(j); };
  for (const auto& [id, conn] : conns_) {
    for (LinkId l : conn.primary_lset) {
      expect_primary[static_cast<std::size_t>(l)].push_back(id);
    }
    for (const routing::Path& backup : conn.backups) {
      for (LinkId l : backup.links()) {
        ManagedLink& e = expected[static_cast<std::size_t>(l)];
        e.aplv.AddPrimaryLset(conn.primary_lset);
        e.demand.AddAll(conn.primary_lset, conn.bw);
        e.srlg_aplv.AddLset(conn.primary_lset, srlg_of);
        expect_backup[static_cast<std::size_t>(l)].push_back(id);
      }
    }
  }
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    const auto u = static_cast<std::size_t>(l);
    const ManagedLink& e = expected[u];
    const ManagedLink& ml = links_[u];
    DRTP_CHECK_MSG(e.aplv == ml.aplv, "APLV mismatch on link " << l);
    DRTP_CHECK_MSG(e.srlg_aplv == ml.srlg_aplv,
                   "per-SRLG aggregate mismatch on link " << l);
    DRTP_CHECK_MSG(e.demand == ml.demand, "demand mismatch on link " << l);
    // Spare pools meet their targets unless the link is out of free
    // bandwidth (§5's best-effort growth), in which case the link must be
    // flagged overbooked; a listed link is below target (releases rely on
    // both, see ReleaseBackupHops).
    const auto& mgr = manager(topo_.link(l).src);
    const Bandwidth target = mgr.SpareTarget(l);
    const Bandwidth spare = ledger_.spare(l);
    DRTP_CHECK_MSG(spare <= target, "spare exceeds target on link " << l);
    const bool listed = overbooked_.contains(l);
    DRTP_CHECK_MSG(spare == target || ledger_.free(l) == 0,
                   "link " << l << " underprovisioned with free bandwidth");
    DRTP_CHECK_MSG(listed || spare == target,
                   "link " << l << " overbooked but untracked");
    DRTP_CHECK_MSG(!listed || spare < target,
                   "link " << l << " listed overbooked but meets target");
    // Reverse indexes and the down-link mirror must match the tables they
    // are derived from.
    DRTP_CHECK_MSG(expect_primary[u] == primary_conns_[u],
                   "primary reverse index mismatch on link " << l);
    const std::span<const ConnId> backup_ids = BackupConnsOn(l);
    DRTP_CHECK_MSG(std::equal(expect_backup[u].begin(), expect_backup[u].end(),
                              backup_ids.begin(), backup_ids.end()),
                   "backup reverse index mismatch on link " << l);
    const bool listed_down = std::binary_search(down_links_.begin(),
                                                down_links_.end(), l);
    DRTP_CHECK_MSG(listed_down == !IsLinkUp(l),
                   "down-link mirror mismatch on link " << l);
  }
}

}  // namespace drtp::core
