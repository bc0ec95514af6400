#include "drtp/manager.h"

#include <algorithm>

#include "common/check.h"

namespace drtp::core {

Bandwidth DemandVector::at(LinkId j) const {
  DRTP_DCHECK(j >= 0 && j < num_links_);
  if (!wide()) return demand_[static_cast<std::size_t>(j)];
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
  if (it == keys_.end() || *it != j) return 0;
  return vals_[static_cast<std::size_t>(it - keys_.begin())];
}

void DemandVector::Add(const routing::LinkSet& lset, Bandwidth bw) {
  DRTP_CHECK(bw > 0);
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < num_links_);
    Bandwidth d;
    if (!wide()) {
      d = demand_[static_cast<std::size_t>(j)] += bw;
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      if (it != keys_.end() && *it == j) {
        d = vals_[static_cast<std::size_t>(it - keys_.begin())] += bw;
      } else {
        vals_.insert(vals_.begin() + (it - keys_.begin()), bw);
        keys_.insert(it, j);
        d = bw;
      }
    }
    if (d > max_) max_ = d;
  }
}

void DemandVector::Remove(const routing::LinkSet& lset, Bandwidth bw) {
  bool touched_max = false;
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < num_links_);
    if (!wide()) {
      auto& d = demand_[static_cast<std::size_t>(j)];
      DRTP_CHECK_MSG(d >= bw, "removing more demand than present on " << j);
      if (d == max_) touched_max = true;
      d -= bw;
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      DRTP_CHECK_MSG(it != keys_.end() && *it == j &&
                         vals_[static_cast<std::size_t>(it - keys_.begin())] >=
                             bw,
                     "removing more demand than present on " << j);
      const auto idx = static_cast<std::size_t>(it - keys_.begin());
      if (vals_[idx] == max_) touched_max = true;
      vals_[idx] -= bw;
      if (vals_[idx] == 0) {  // canonical: no zero entries
        keys_.erase(it);
        vals_.erase(vals_.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
  }
  if (touched_max) {
    max_ = 0;
    if (!wide()) {
      for (Bandwidth d : demand_) max_ = std::max(max_, d);
    } else {
      for (Bandwidth d : vals_) max_ = std::max(max_, d);
    }
  }
}

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
  std::vector<ManagedLink> links;
  links.reserve(static_cast<std::size_t>(topo.num_links()));
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    links.push_back(ManagedLink{
        lsdb::Aplv(topo.num_links()), DemandVector(topo.num_links()),
        topo.has_srlgs()
            ? lsdb::SrlgVector(topo.num_srlgs(), topo.num_links())
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
  if (ml.srlg_aplv.num_srlgs() > 0) {
    ml.srlg_aplv.AddLset(p.primary_lset,
                         [&](LinkId j) { return topo_->srlg(j); });
  }
  ml.demand.Add(p.primary_lset, p.bw);
  ml.total_backup_bw += p.bw;
  return Reconcile(link, ml);
}

void DrConnectionManager::ReleaseBackupHop(LinkId link,
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
  ml.aplv.RemovePrimaryLset(p.primary_lset);
  if (ml.srlg_aplv.num_srlgs() > 0) {
    ml.srlg_aplv.RemoveLset(p.primary_lset,
                            [&](LinkId j) { return topo_->srlg(j); });
  }
  ml.demand.Remove(p.primary_lset, p.bw);
  ml.total_backup_bw -= p.bw;
  ml.backups.Erase(i);
  Reconcile(link, ml);
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
