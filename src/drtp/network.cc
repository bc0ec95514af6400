#include "drtp/network.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drtp::core {

namespace {

void SortedInsert(std::vector<ConnId>& v, ConnId id) {
  auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it == v.end() || *it != id) v.insert(it, id);
}

void SortedErase(std::vector<ConnId>& v, ConnId id) {
  auto it = std::lower_bound(v.begin(), v.end(), id);
  DRTP_DCHECK(it != v.end() && *it == id);
  if (it != v.end() && *it == id) v.erase(it);
}

}  // namespace

DrtpNetwork::DrtpNetwork(net::Topology topo, NetworkConfig config)
    : topo_(std::move(topo)),
      config_(config),
      ledger_(topo_),
      links_(MakeLinkTable(topo_)),
      link_up_(static_cast<std::size_t>(topo_.num_links()), 1),
      primary_conns_(static_cast<std::size_t>(topo_.num_links())),
      backup_conns_(static_cast<std::size_t>(topo_.num_links())),
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

void DrtpNetwork::IndexPrimary(ConnId id, const routing::LinkSet& lset) {
  for (LinkId l : lset) {
    SortedInsert(primary_conns_[static_cast<std::size_t>(l)], id);
    MarkDirty(l);
  }
}

void DrtpNetwork::UnindexPrimary(ConnId id, const routing::LinkSet& lset) {
  for (LinkId l : lset) {
    SortedErase(primary_conns_[static_cast<std::size_t>(l)], id);
    MarkDirty(l);
  }
}

bool DrtpNetwork::EstablishConnection(ConnId id, const routing::Path& primary,
                                      Bandwidth bw, Time now) {
  DRTP_CHECK(bw > 0);
  DRTP_CHECK_MSG(!conns_.contains(id), "duplicate connection id " << id);
  // All-or-nothing reservation with rollback.
  std::vector<LinkId> reserved;
  reserved.reserve(primary.links().size());
  for (LinkId l : primary.links()) {
    if (!IsLinkUp(l) || !ledger_.ReservePrime(l, bw)) {
      for (LinkId r : reserved) ledger_.ReleasePrime(r, bw);
      return false;
    }
    reserved.push_back(l);
  }
  auto it = conns_
                .emplace(id, DrConnection{.id = id,
                                          .src = primary.src(),
                                          .dst = primary.dst(),
                                          .bw = bw,
                                          .primary = primary,
                                          .primary_lset = primary.ToLinkSet(),
                                          .backups = {},
                                          .established_at = now,
                                          .failovers = 0})
                .first;
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
    SortedInsert(backup_conns_[static_cast<std::size_t>(l)], id);
    MarkDirty(l);
  }
  conn.backups.push_back(backup);
  return overbooked_hops;
}

void DrtpNetwork::ReleaseBackupAt(ConnId id, std::size_t index) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  DrConnection& conn = it->second;
  DRTP_CHECK_MSG(index < conn.backups.size(),
                 "connection " << id << " has no backup #" << index);
  const BackupReleasePacket packet{
      .conn_id = id, .bw = conn.bw, .primary_lset = conn.primary_lset};
  for (LinkId l : conn.backups[index].links()) {
    OwnerOf(l).ReleaseBackupHop(l, packet);
    // A connection's backups are pairwise disjoint, so no surviving backup
    // of `id` can still hold this link.
    SortedErase(backup_conns_[static_cast<std::size_t>(l)], id);
    MarkDirty(l);
  }
  conn.backups.erase(conn.backups.begin() +
                     static_cast<std::ptrdiff_t>(index));
  ReconcileOverbooked();
}

void DrtpNetwork::ReleaseAllBackups(ConnId id) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  while (!it->second.backups.empty()) {
    ReleaseBackupAt(id, it->second.backups.size() - 1);
  }
}

void DrtpNetwork::ReleaseConnection(ConnId id) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  ReleaseAllBackups(id);
  for (LinkId l : it->second.primary.links()) {
    ledger_.ReleasePrime(l, it->second.bw);
  }
  UnindexPrimary(id, it->second.primary_lset);
  conns_.erase(it);
  // §5: resources of a released primary are offered to spare pools that
  // could not previously reach their targets.
  ReconcileOverbooked();
}

bool DrtpNetwork::ActivateBackup(ConnId id, std::size_t index, Time now) {
  auto it = conns_.find(id);
  DRTP_CHECK_MSG(it != conns_.end(), "no connection " << id);
  DrConnection& conn = it->second;
  DRTP_CHECK_MSG(index < conn.backups.size(),
                 "connection " << id << " has no backup #" << index
                               << " to activate");
  const routing::Path promoted = conn.backups[index];

  // Deregister every backup first: the registrations carried the *old*
  // primary's LSET and would go stale the moment the promotion lands; the
  // promoted route's own spare demand disappearing typically frees exactly
  // the bandwidth the promotion is about to claim. Step 4 (resource
  // reconfiguration) re-establishes protection afterwards.
  ReleaseAllBackups(id);
  for (LinkId l : conn.primary.links()) ledger_.ReleasePrime(l, conn.bw);
  UnindexPrimary(id, conn.primary_lset);

  // Reserve along the promoted route, raiding spare pools if needed.
  std::vector<LinkId> reserved;
  bool ok = true;
  for (LinkId l : promoted.links()) {
    if (!IsLinkUp(l) || !ledger_.ReservePrimeForced(l, conn.bw)) {
      ok = false;
      break;
    }
    reserved.push_back(l);
    MarkDirty(l);
    if (OwnerOf(l).IsOverbooked(l)) overbooked_.insert(l);
  }
  if (!ok) {
    for (LinkId r : reserved) ledger_.ReleasePrime(r, conn.bw);
    conns_.erase(it);  // unrecoverable: resources already released
    ReconcileOverbooked();
    return false;
  }
  conn.primary = promoted;
  conn.primary_lset = promoted.ToLinkSet();
  IndexPrimary(id, conn.primary_lset);
  conn.established_at = now;
  ++conn.failovers;
  ReconcileOverbooked();
  return true;
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

std::vector<ConnId> DrtpNetwork::ConnsWithPrimaryOn(LinkId l) const {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  return primary_conns_[static_cast<std::size_t>(l)];
}

std::vector<ConnId> DrtpNetwork::ConnsWithBackupOn(LinkId l) const {
  DRTP_CHECK(l >= 0 && l < topo_.num_links());
  return backup_conns_[static_cast<std::size_t>(l)];
}

std::span<const ConnId> DrtpNetwork::PrimaryConnsOn(LinkId l) const {
  DRTP_DCHECK(l >= 0 && l < topo_.num_links());
  return primary_conns_[static_cast<std::size_t>(l)];
}

std::span<const ConnId> DrtpNetwork::BackupConnsOn(LinkId l) const {
  DRTP_DCHECK(l >= 0 && l < topo_.num_links());
  return backup_conns_[static_cast<std::size_t>(l)];
}

std::vector<LinkId> DrtpNetwork::OverbookedLinks() const {
  std::vector<LinkId> out;
  for (LinkId l : overbooked_) out.push_back(l);
  return out;
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

void DrtpNetwork::ReconcileOverbooked() {
  for (auto it = overbooked_.begin(); it != overbooked_.end();) {
    const LinkId l = *it;
    const Bandwidth spare = ledger_.spare(l);
    const bool met = OwnerOf(l).ReconcileSpare(l);
    if (ledger_.spare(l) != spare) MarkDirty(l);
    it = met ? overbooked_.erase(it) : std::next(it);
  }
}

void DrtpNetwork::CheckConsistency() const {
  ledger_.CheckInvariants();
  // Rebuild every link's protection counts from the connection table.
  std::vector<ManagedLink> expected = MakeLinkTable(topo_);
  const auto srlg_of = [&](LinkId j) { return topo_.srlg(j); };
  for (const auto& [id, conn] : conns_) {
    for (const routing::Path& backup : conn.backups) {
      for (LinkId l : backup.links()) {
        ManagedLink& e = expected[static_cast<std::size_t>(l)];
        e.aplv.AddPrimaryLset(conn.primary_lset);
        e.demand.AddAll(conn.primary_lset, conn.bw);
        e.srlg_aplv.AddLset(conn.primary_lset, srlg_of);
      }
    }
  }
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    const ManagedLink& e = expected[static_cast<std::size_t>(l)];
    const ManagedLink& ml = links_[static_cast<std::size_t>(l)];
    DRTP_CHECK_MSG(e.aplv == ml.aplv, "APLV mismatch on link " << l);
    DRTP_CHECK_MSG(e.srlg_aplv == ml.srlg_aplv,
                   "per-SRLG aggregate mismatch on link " << l);
    DRTP_CHECK_MSG(e.demand == ml.demand, "demand mismatch on link " << l);
    // Spare pools meet their targets unless the link is out of free
    // bandwidth (§5's best-effort growth), in which case the link must be
    // flagged overbooked.
    const auto& mgr = manager(topo_.link(l).src);
    const Bandwidth target = mgr.SpareTarget(l);
    const Bandwidth spare = ledger_.spare(l);
    DRTP_CHECK_MSG(spare <= target, "spare exceeds target on link " << l);
    if (spare < target) {
      DRTP_CHECK_MSG(ledger_.free(l) == 0,
                     "link " << l << " underprovisioned with free bandwidth");
      DRTP_CHECK_MSG(overbooked_.contains(l),
                     "link " << l << " overbooked but untracked");
    }
  }
  // Reverse indexes and the down-link mirror must match the tables they
  // are derived from.
  std::vector<std::vector<ConnId>> expect_primary(
      static_cast<std::size_t>(topo_.num_links()));
  std::vector<std::vector<ConnId>> expect_backup(
      static_cast<std::size_t>(topo_.num_links()));
  for (const auto& [id, conn] : conns_) {
    for (LinkId l : conn.primary_lset) {
      expect_primary[static_cast<std::size_t>(l)].push_back(id);
    }
    for (const routing::Path& backup : conn.backups) {
      for (LinkId l : backup.links()) {
        auto& v = expect_backup[static_cast<std::size_t>(l)];
        if (v.empty() || v.back() != id) v.push_back(id);
      }
    }
  }
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    DRTP_CHECK_MSG(
        expect_primary[static_cast<std::size_t>(l)] ==
            primary_conns_[static_cast<std::size_t>(l)],
        "primary reverse index mismatch on link " << l);
    auto& eb = expect_backup[static_cast<std::size_t>(l)];
    std::sort(eb.begin(), eb.end());
    eb.erase(std::unique(eb.begin(), eb.end()), eb.end());
    DRTP_CHECK_MSG(eb == backup_conns_[static_cast<std::size_t>(l)],
                   "backup reverse index mismatch on link " << l);
    const bool listed_down = std::binary_search(down_links_.begin(),
                                                down_links_.end(), l);
    DRTP_CHECK_MSG(listed_down == !IsLinkUp(l),
                   "down-link mirror mismatch on link " << l);
  }
}

}  // namespace drtp::core
