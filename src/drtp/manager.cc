#include "drtp/manager.h"

#include <algorithm>

#include "common/check.h"

namespace drtp::core {

int BackupTable::Find(ConnId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it != ids_.end() && *it == id ? static_cast<int>(it - ids_.begin())
                                       : -1;
}

bool BackupTable::Insert(ConnId id, Bandwidth bw,
                         const routing::LinkSet& lset) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return false;
  const auto i = static_cast<std::size_t>(it - ids_.begin());
  const std::uint32_t begin = Begin(i);
  const auto len = static_cast<std::uint32_t>(lset.size());
  ids_.insert(it, id);
  bws_.insert(bws_.begin() + static_cast<std::ptrdiff_t>(i), bw);
  ends_.insert(ends_.begin() + static_cast<std::ptrdiff_t>(i), begin + len);
  for (std::size_t k = i + 1; k < ends_.size(); ++k) ends_[k] += len;
  lsets_.insert(lsets_.begin() + begin, lset.begin(), lset.end());
  return true;
}

void BackupTable::Erase(int i) {
  const auto u = static_cast<std::size_t>(i);
  const std::uint32_t begin = Begin(u);
  const std::uint32_t len = ends_[u] - begin;
  lsets_.erase(lsets_.begin() + begin, lsets_.begin() + begin + len);
  for (std::size_t k = u + 1; k < ends_.size(); ++k) ends_[k] -= len;
  ids_.erase(ids_.begin() + i);
  bws_.erase(bws_.begin() + i);
  ends_.erase(ends_.begin() + i);
}

std::span<const LinkId> BackupTable::lset(int i) const {
  const auto u = static_cast<std::size_t>(i);
  return {lsets_.data() + Begin(u), lsets_.data() + ends_[u]};
}

std::vector<ManagedLink> MakeLinkTable(const net::Topology& topo) {
  const int n = topo.num_links();
  std::vector<ManagedLink> links;
  links.reserve(static_cast<std::size_t>(n));
  for (LinkId l = 0; l < n; ++l) {
    links.push_back(ManagedLink{
        lsdb::Aplv(n), DemandVector(n, n),
        topo.has_srlgs() ? lsdb::SrlgVector(topo.num_srlgs(), n)
                         : lsdb::SrlgVector(),
        0, {}});
  }
  return links;
}

DrConnectionManager::DrConnectionManager(NodeId node,
                                         const net::Topology& topo,
                                         net::BandwidthLedger& ledger,
                                         SpareMode mode,
                                         std::span<ManagedLink> links)
    : node_(node), topo_(&topo), ledger_(ledger), mode_(mode), links_(links) {
  DRTP_CHECK(node >= 0 && node < topo.num_nodes());
  DRTP_CHECK(static_cast<int>(links.size()) == topo.num_links());
}

const ManagedLink& DrConnectionManager::Owned(LinkId link) const {
  DRTP_CHECK_MSG(link >= 0 && link < topo_->num_links() &&
                     topo_->link(link).src == node_,
                 "link " << link << " is not an out-link of node " << node_);
  return links_[static_cast<std::size_t>(link)];
}

Bandwidth DrConnectionManager::Target(const ManagedLink& ml) const {
  // kMultiplexed sizes for the worst single-link failure (the weighted
  // generalization of §5's max(APLV) × bw rule); kDedicated reserves for
  // every backup at once.
  return mode_ == SpareMode::kMultiplexed ? ml.demand.Max()
                                          : ml.total_backup_bw;
}

bool DrConnectionManager::RegisterBackupHop(LinkId link,
                                            const BackupRegisterPacket& p) {
  DRTP_CHECK(p.conn_id != kInvalidConn);
  DRTP_CHECK(p.bw > 0);
  DRTP_CHECK_MSG(!p.primary_lset.empty(),
                 "backup registered with empty primary LSET");
  ManagedLink& ml = Owned(link);
  const bool added = ml.backups.Insert(p.conn_id, p.bw, p.primary_lset);
  DRTP_CHECK_MSG(added, "connection " << p.conn_id
                                      << " already has a backup on link "
                                      << link);
  ml.aplv.AddPrimaryLset(p.primary_lset);
  ml.srlg_aplv.AddLset(p.primary_lset,
                       [&](LinkId j) { return topo_->srlg(j); });
  ml.demand.AddAll(p.primary_lset, p.bw);
  ml.total_backup_bw += p.bw;
  return Reconcile(link, ml);
}

bool DrConnectionManager::ReleaseBackupHop(LinkId link,
                                           const BackupReleasePacket& p) {
  ManagedLink& ml = Owned(link);
  const int i = ml.backups.Find(p.conn_id);
  DRTP_CHECK_MSG(i >= 0, "releasing unknown backup " << p.conn_id
                                                     << " on link " << link);
  const std::span<const LinkId> registered = ml.backups.lset(i);
  DRTP_CHECK_MSG(std::equal(registered.begin(), registered.end(),
                            p.primary_lset.begin(), p.primary_lset.end()),
                 "release LSET mismatch for connection " << p.conn_id);
  DRTP_CHECK_MSG(ml.backups.bw(i) == p.bw,
                 "release bandwidth mismatch for connection " << p.conn_id);
  const bool was_short = ledger_.spare(link) < Target(ml);
  ml.aplv.RemovePrimaryLset(p.primary_lset);
  ml.srlg_aplv.RemoveLset(p.primary_lset,
                          [&](LinkId j) { return topo_->srlg(j); });
  ml.demand.SubAll(p.primary_lset, p.bw);
  ml.total_backup_bw -= p.bw;
  ml.backups.Erase(i);
  return Reconcile(link, ml) && was_short;
}

bool DrConnectionManager::Reconcile(LinkId link, const ManagedLink& ml) {
  const Bandwidth target = Target(ml);
  const Bandwidth current = ledger_.spare(link);
  if (current < target) {
    ledger_.GrowSpare(link, target - current);
  } else if (current > target) {
    ledger_.ShrinkSpare(link, current - target);
  }
  return ledger_.spare(link) >= target;
}

bool DrConnectionManager::IsOverbooked(LinkId link) const {
  return ledger_.spare(link) < SpareTarget(link);
}

}  // namespace drtp::core
