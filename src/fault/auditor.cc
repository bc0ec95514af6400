#include "fault/auditor.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "drtp/manager.h"
#include "lsdb/aplv.h"
#include "routing/path.h"

namespace drtp::fault {
namespace {

bool SpanEquals(std::span<const ConnId> a, const std::vector<ConnId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::string IdList(std::span<const ConnId> ids) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) os << " ";
    os << ids[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

Auditor::Auditor(AuditorOptions options) : options_(std::move(options)) {
  DRTP_CHECK(options_.stride >= 1);
}

void Auditor::Check(const core::DrtpNetwork& net, Time t,
                    std::string_view event,
                    const core::SwitchoverReport* report) {
  const bool forced = report != nullptr || event == "final";
  const bool due = (calls_++ % options_.stride) == 0;
  if (forced || due) Audit(net, t, event, report);
}

void Auditor::Record(AuditViolation v) {
  ++violation_count_;
  if (violations_.size() >= options_.max_recorded) return;
  if (options_.out != nullptr) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("drtp.audit/1");
    w.Key("t").Double(v.t);
    w.Key("event").String(v.event);
    w.Key("invariant").String(v.invariant);
    if (v.link != kInvalidLink) w.Key("link").Int(v.link);
    if (v.conn != kInvalidConn) w.Key("conn").Int(v.conn);
    if (options_.cell >= 0) w.Key("cell").Int(options_.cell);
    w.Key("detail").String(v.detail);
    w.EndObject();
    *options_.out << w.str() << '\n';
    options_.out->flush();
  }
  violations_.push_back(std::move(v));
}

void Auditor::Audit(const core::DrtpNetwork& net, Time t,
                    std::string_view event,
                    const core::SwitchoverReport* report) {
  ++checks_;
  const net::Topology& topo = net.topology();
  const int num_links = topo.num_links();
  const auto idx = [](LinkId l) { return static_cast<std::size_t>(l); };
  const auto fail = [&](std::string invariant, std::string detail,
                        LinkId link = kInvalidLink,
                        ConnId conn = kInvalidConn) {
    Record(AuditViolation{.invariant = std::move(invariant),
                          .detail = std::move(detail),
                          .t = t,
                          .event = std::string(event),
                          .link = link,
                          .conn = conn});
  };

  // ---- ground truth rebuilt from the connection table alone -------------
  std::vector<Bandwidth> prime(idx(num_links), 0);
  // Per-link protection counts (APLV, demand, per-SRLG aggregate, backup
  // bandwidth), in the manager's own record type.
  std::vector<core::ManagedLink> rebuilt = core::MakeLinkTable(topo);
  const bool tagged = topo.has_srlgs();
  const auto srlg_of = [&](LinkId l) { return topo.srlg(l); };
  std::vector<std::vector<ConnId>> prim_on(idx(num_links));
  std::vector<std::vector<ConnId>> back_on(idx(num_links));

  std::vector<SrlgId> primary_groups;
  for (const auto& [id, conn] : net.connections()) {
    if (conn.primary_lset != conn.primary.ToLinkSet()) {
      fail("conn.lset_cache", "cached primary LSET diverges from route",
           kInvalidLink, id);
    }
    for (const LinkId l : conn.primary.links()) {
      prime[idx(l)] += conn.bw;
      prim_on[idx(l)].push_back(id);
    }
    for (std::size_t i = 0; i < conn.backups.size(); ++i) {
      for (std::size_t j = i + 1; j < conn.backups.size(); ++j) {
        if (!conn.backups[i].LinkDisjoint(conn.backups[j])) {
          std::ostringstream os;
          os << "backups " << i << " and " << j << " share a link";
          fail("conn.backup_overlap", os.str(), kInvalidLink, id);
        }
      }
      // Partial primary overlap is a scheme tradeoff (BF minimizes, LSR
      // shuns), but a backup covering EVERY primary link protects nothing:
      // any primary failure takes the backup down with it.
      if (conn.primary.hops() > 0 &&
          conn.backups[i].OverlapCount(conn.primary) == conn.primary.hops()) {
        std::ostringstream os;
        os << "backup " << i << " covers every primary link";
        fail("conn.backup_shadows_primary", os.str(), kInvalidLink, id);
      }
      for (const LinkId l : conn.backups[i].links()) {
        core::ManagedLink& e = rebuilt[idx(l)];
        e.aplv.AddPrimaryLset(conn.primary_lset);
        e.demand.AddAll(conn.primary_lset, conn.bw);
        e.srlg_aplv.AddLset(conn.primary_lset, srlg_of);
        e.total_backup_bw += conn.bw;
        auto& v = back_on[idx(l)];
        if (v.empty() || v.back() != id) v.push_back(id);
      }
    }
    // SRLG disjointness, when the scheme promises it: a backup touching a
    // link that fails together with the primary protects nothing against
    // that group's failure.
    if (options_.require_srlg_disjoint && tagged) {
      primary_groups.clear();
      for (const LinkId l : conn.primary.links()) {
        const SrlgId g = topo.srlg(l);
        if (g != kInvalidSrlg) primary_groups.push_back(g);
      }
      std::sort(primary_groups.begin(), primary_groups.end());
      primary_groups.erase(
          std::unique(primary_groups.begin(), primary_groups.end()),
          primary_groups.end());
      if (!primary_groups.empty()) {
        for (std::size_t i = 0; i < conn.backups.size(); ++i) {
          for (const LinkId l : conn.backups[i].links()) {
            const SrlgId g = topo.srlg(l);
            if (g != kInvalidSrlg &&
                std::binary_search(primary_groups.begin(),
                                   primary_groups.end(), g)) {
              std::ostringstream os;
              os << "backup " << i << " link " << l
                 << " shares risk group " << g << " with the primary";
              fail("conn.backup_shares_srlg", os.str(), l, id);
            }
          }
        }
      }
    }
  }

  const net::BandwidthLedger& ledger = net.ledger();
  const std::vector<LinkId> overbooked = net.OverbookedLinks();
  for (LinkId l = 0; l < num_links; ++l) {
    // Ledger conservation and pool sanity.
    const Bandwidth cap = topo.link(l).capacity;
    if (ledger.total(l) != cap) {
      std::ostringstream os;
      os << "ledger total " << ledger.total(l) << " != capacity " << cap;
      fail("ledger.total", os.str(), l);
    }
    if (ledger.prime(l) < 0 || ledger.spare(l) < 0 || ledger.free(l) < 0) {
      std::ostringstream os;
      os << "negative pool: prime " << ledger.prime(l) << " spare "
         << ledger.spare(l) << " free " << ledger.free(l);
      fail("ledger.negative_pool", os.str(), l);
    }
    if (ledger.prime(l) != prime[idx(l)]) {
      std::ostringstream os;
      os << "ledger prime " << ledger.prime(l) << " != sum of primaries "
         << prime[idx(l)];
      fail("ledger.prime_conservation", os.str(), l);
    }

    // APLV bit-equality against the from-scratch rebuild.
    const core::ManagedLink& e = rebuilt[idx(l)];
    const auto& mgr = net.manager(topo.link(l).src);
    if (!(net.aplv(l) == e.aplv)) {
      fail("aplv.mismatch", "incremental APLV != rebuilt APLV", l);
    }
    if (!(mgr.managed(l).srlg_aplv == e.srlg_aplv)) {
      fail("srlg.aggregate_mismatch",
           "incremental per-SRLG aggregate != rebuilt aggregate", l);
    }

    // Spare-pool sufficiency: the manager's target must equal the §5 rule
    // recomputed from scratch, and the pool must meet it unless free
    // bandwidth is exhausted (then the link must be flagged overbooked).
    const Bandwidth want =
        net.config().spare_mode == core::SpareMode::kMultiplexed
            ? e.demand.Max()
            : e.total_backup_bw;
    const Bandwidth target = mgr.SpareTarget(l);
    if (target != want) {
      std::ostringstream os;
      os << "manager target " << target << " != rebuilt max-demand "
         << want;
      fail("spare.target_drift", os.str(), l);
    }
    const Bandwidth spare = ledger.spare(l);
    if (spare > target) {
      std::ostringstream os;
      os << "spare " << spare << " exceeds target " << target;
      fail("spare.exceeds_target", os.str(), l);
    } else if (spare < target && ledger.free(l) != 0) {
      std::ostringstream os;
      os << "spare " << spare << " below target " << target << " with "
         << ledger.free(l) << " free";
      fail("spare.underprovisioned", os.str(), l);
    }
    // Listed exactly when below target: releases reconcile only the links
    // they touch, so a stale listing is a bookkeeping bug too.
    const bool listed =
        std::binary_search(overbooked.begin(), overbooked.end(), l);
    if (listed != (spare < target)) {
      fail(listed ? "spare.overbooked_stale" : "spare.overbooked_untracked",
           listed ? "link in OverbookedLinks but spare meets target"
                  : "spare below target but link not in OverbookedLinks",
           l);
    }

    // Reverse-index agreement.
    if (!SpanEquals(net.PrimaryConnsOn(l), prim_on[idx(l)])) {
      fail("index.primary",
           "index " + IdList(net.PrimaryConnsOn(l)) + " != table " +
               IdList(prim_on[idx(l)]),
           l);
    }
    auto& eb = back_on[idx(l)];
    std::sort(eb.begin(), eb.end());
    eb.erase(std::unique(eb.begin(), eb.end()), eb.end());
    if (!SpanEquals(net.BackupConnsOn(l), eb)) {
      fail("index.backup",
           "index " + IdList(net.BackupConnsOn(l)) + " != table " +
               IdList(eb),
           l);
    }
  }

  // Down-link mirror: sorted, unique, agreeing with IsLinkUp, and duplex
  // halves failing together when the network is configured that way.
  const std::vector<LinkId>& down = net.down_links();
  if (!std::is_sorted(down.begin(), down.end()) ||
      std::adjacent_find(down.begin(), down.end()) != down.end()) {
    fail("links.down_mirror", "down_links not sorted/unique");
  }
  for (LinkId l = 0; l < num_links; ++l) {
    const bool listed =
        std::binary_search(down.begin(), down.end(), l);
    if (listed == net.IsLinkUp(l)) {
      fail("links.down_mirror",
           listed ? "listed down but reports up" : "down but unlisted", l);
    }
    if (net.config().duplex_failures && !net.IsLinkUp(l)) {
      const LinkId rev = topo.link(l).reverse;
      if (rev != kInvalidLink && net.IsLinkUp(rev)) {
        fail("links.duplex_pair", "reverse half still up", l);
      }
    }
  }

  // Switchover-report sanity for enacted failures.
  if (report != nullptr) {
    for (const ConnId id : report->recovered) {
      if (std::find(report->dropped.begin(), report->dropped.end(), id) !=
          report->dropped.end()) {
        fail("report.recovered_and_dropped",
             "connection both recovered and dropped", kInvalidLink, id);
      }
      if (net.Find(id) == nullptr) {
        fail("report.recovered_missing",
             "recovered connection absent from table", kInvalidLink, id);
      }
    }
    for (const ConnId id : report->dropped) {
      if (net.Find(id) != nullptr) {
        fail("report.dropped_present",
             "dropped connection still in table", kInvalidLink, id);
      }
    }
    for (const ConnId id : report->rerouted) {
      const core::DrConnection* conn = net.Find(id);
      if (conn == nullptr || !conn->has_backup()) {
        fail("report.rerouted_unprotected",
             "rerouted connection has no backup", kInvalidLink, id);
      }
    }
  }
}

}  // namespace drtp::fault
