#include "proto/engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "drtp/failure.h"

namespace drtp::proto {
namespace {

bool UsesAnyDown(const core::DrtpNetwork& net, const routing::Path& path) {
  for (LinkId l : path.links()) {
    if (!net.IsLinkUp(l)) return true;
  }
  return false;
}

}  // namespace

ProtocolEngine::ProtocolEngine(core::DrtpNetwork& net, sim::EventQueue& queue,
                               ProtocolConfig config,
                               core::RoutingScheme* scheme,
                               lsdb::LinkStateDb* db)
    : net_(net),
      queue_(queue),
      config_(config),
      scheme_(scheme),
      db_(db),
      rng_(config.seed) {
  DRTP_CHECK(config_.link_delay > 0.0);
  DRTP_CHECK(config_.detection_delay >= 0.0);
  DRTP_CHECK(config_.reactive_max_retries >= 0);
  DRTP_CHECK(config_.reactive_backoff > 0.0);
  DRTP_CHECK(config_.reprotect_max_retries >= 0);
  DRTP_CHECK(config_.reprotect_backoff > 0.0);
}

void ProtocolEngine::NotifyAction() {
  if (after_action_) after_action_(net_, queue_.now());
}

void ProtocolEngine::SetupConnection(ConnId id, const routing::Path& primary,
                                     const std::optional<routing::Path>& backup,
                                     Bandwidth bw,
                                     std::function<void(ConnId, bool)> done) {
  const Time t0 = queue_.now();
  const Time forward = primary.hops() * config_.link_delay;
  // The reserve message reaches the destination after `forward`; resources
  // commit there-and-then (the per-hop race is resolved at this instant —
  // a small simplification of true hop-by-hop holding).
  queue_.Schedule(t0 + forward, [this, id, primary, backup, bw, t0,
                                 done = std::move(done)] {
    if (net_.EstablishConnection(id, primary, bw, queue_.now())) {
      NotifyAction();
      const Time confirm = primary.hops() * config_.link_delay;
      queue_.Schedule(queue_.now() + confirm, [this, id, backup, done] {
        // The backup-register packet is sent right after the confirm
        // (steps 2–3); registration never rejects.
        if (backup.has_value() && net_.Find(id) != nullptr) {
          net_.RegisterBackup(id, *backup);
          NotifyAction();
        }
        done(id, true);
      });
      return;
    }
    // Locate the refusing hop for the reject's timing.
    int refused_at = primary.hops();
    for (int i = 0; i < primary.hops(); ++i) {
      const LinkId l = primary.links()[static_cast<std::size_t>(i)];
      if (!net_.IsLinkUp(l) || !net_.ledger().CanReservePrime(l, bw)) {
        refused_at = i + 1;
        break;
      }
    }
    const Time reject_done =
        t0 + 2.0 * refused_at * config_.link_delay;
    queue_.Schedule(std::max(queue_.now(), reject_done),
                    [id, done] { done(id, false); });
  });
}

void ProtocolEngine::TearDown(ConnId id) {
  if (net_.Find(id) != nullptr) {
    net_.ReleaseConnection(id);
    NotifyAction();
  }
}

void ProtocolEngine::InjectLinkFailure(LinkId link, RecoveryMode mode) {
  DRTP_CHECK_MSG(net_.IsLinkUp(link), "link " << link << " already down");
  const LinkId one[1] = {link};
  InjectLinkSetFailure(one, mode);
}

void ProtocolEngine::InjectLinkSetFailure(std::span<const LinkId> links,
                                          RecoveryMode mode) {
  const Time t0 = queue_.now();
  // Take the whole set down before computing any affected set: a backup
  // sharing a risk group with its primary must be seen dead at activation
  // time.
  const std::vector<LinkId> failed_set = core::FailedLinkSet(net_, links);
  if (failed_set.empty()) return;
  for (const LinkId l : failed_set) net_.SetLinkDown(l);
  if (scheme_ != nullptr) scheme_->OnTopologyChanged(net_);
  NotifyAction();

  const auto in_set = [&](LinkId l) {
    return std::binary_search(failed_set.begin(), failed_set.end(), l);
  };

  // Affected sets, before any recovery mutates the table. A primary hit
  // at several member links detects at the hop closest to its source.
  std::vector<ConnId> primary_hit;
  std::vector<std::pair<ConnId, int>> hops_to_fault;  // along the primary
  std::vector<ConnId> backup_hit;
  for (const auto& [id, conn] : net_.connections()) {
    bool on_primary = false;
    for (int i = 0; i < conn.primary.hops(); ++i) {
      if (in_set(conn.primary.links()[static_cast<std::size_t>(i)])) {
        primary_hit.push_back(id);
        hops_to_fault.emplace_back(id, i);
        on_primary = true;
        break;
      }
    }
    if (on_primary) continue;
    for (const routing::Path& b : conn.backups) {
      if (std::any_of(b.links().begin(), b.links().end(), in_set)) {
        backup_hit.push_back(id);
        break;
      }
    }
  }

  const Time t_detect = t0 + config_.detection_delay;

  // Broken backups are withdrawn when the detecting router's report
  // reaches the backup's source (one detection delay is a fair bound).
  for (const ConnId id : backup_hit) {
    queue_.Schedule(t_detect, [this, id, failed_set] {
      const core::DrConnection* conn = net_.Find(id);
      if (conn == nullptr) return;
      bool released = false;
      for (std::size_t i = conn->backups.size(); i-- > 0;) {
        const auto& b = conn->backups[i];
        if (std::any_of(b.links().begin(), b.links().end(), [&](LinkId l) {
              return std::binary_search(failed_set.begin(),
                                        failed_set.end(), l);
            })) {
          net_.ReleaseBackupAt(id, i);
          released = true;
        }
      }
      if (released) {
        NotifyAction();
        // Losing the backup leaves the connection exposed just like a
        // failed step-4 re-protection: degrade and retry.
        const core::DrConnection* left = net_.Find(id);
        if (left != nullptr && !left->has_backup()) Degrade(id);
      }
    });
  }

  // Failure reports race toward each affected source; recovery actions
  // execute in report-arrival order, so connections closer to the fault
  // recover (and claim contended spare slots) first.
  for (const auto& [id, hops] : hops_to_fault) {
    const Time t_report = t_detect + hops * config_.link_delay;
    if (mode == RecoveryMode::kProactive) {
      queue_.Schedule(t_report, [this, id, t0] {
        ProactiveRecovery(id, t0, queue_.now());
      });
    } else {
      queue_.Schedule(t_report, [this, id, t0] {
        ReactiveRecovery(id, t0);
      });
    }
  }
}

void ProtocolEngine::ProactiveRecovery(ConnId id, Time failed_at,
                                       Time report_time) {
  const core::DrConnection* conn = net_.Find(id);
  if (conn == nullptr) return;  // already gone
  // Stale report: an earlier overlapping failure's recovery already moved
  // this connection onto a healthy primary (the channel switch beat this
  // report to the source). Acting on it would tear down a live connection
  // — the mid-recovery double-failure hazard.
  if (!UsesAnyDown(net_, conn->primary)) return;
  RecoveryRecord record;
  record.conn = id;
  record.failed_at = failed_at;

  // First backup that avoids every down link.
  std::size_t usable = conn->backups.size();
  for (std::size_t i = 0; i < conn->backups.size(); ++i) {
    if (!UsesAnyDown(net_, conn->backups[i])) {
      usable = i;
      break;
    }
  }
  if (usable == conn->backups.size() ||
      !net_.ActivateBackup(id, usable, report_time)) {
    if (net_.Find(id) != nullptr) net_.ReleaseConnection(id);
    NotifyAction();
    record.success = false;
    record.recovered_at = report_time;
    recoveries_.push_back(record);
    return;
  }
  // The channel-switch (activate) packet walks the promoted route; service
  // resumes when it reaches the destination.
  const core::DrConnection* promoted = net_.Find(id);
  DRTP_CHECK(promoted != nullptr);
  NotifyAction();
  const Time resume =
      report_time + promoted->primary.hops() * config_.link_delay;
  record.success = true;
  record.recovered_at = resume;
  queue_.Schedule(resume, [this, record] { recoveries_.push_back(record); });

  // Step 4: re-protect right after service resumes; no feasible backup
  // degrades the connection to unprotected with backoff retries.
  if (scheme_ != nullptr && db_ != nullptr) {
    queue_.Schedule(resume, [this, id] {
      const core::DrConnection* conn = net_.Find(id);
      if (conn == nullptr || conn->has_backup()) return;
      if (core::Reprotect(net_, *db_, *scheme_, id, queue_.now())) {
        NotifyAction();
      } else {
        Degrade(id);
      }
    });
  }
}

void ProtocolEngine::Degrade(ConnId id) {
  ++degraded_;
  if (scheme_ == nullptr || db_ == nullptr ||
      config_.reprotect_max_retries <= 0) {
    ++reprotect_exhausted_;
    return;
  }
  queue_.Schedule(
      queue_.now() + JitteredBackoff(rng_, config_.reprotect_backoff, 0),
      [this, id] { ReprotectAttempt(id, 1); });
}

void ProtocolEngine::ReprotectAttempt(ConnId id, int attempt) {
  const core::DrConnection* conn = net_.Find(id);
  // Released, dropped, or re-protected by a later failure's step 4.
  if (conn == nullptr || conn->has_backup()) return;
  ++reprotect_retries_;
  if (core::Reprotect(net_, *db_, *scheme_, id, queue_.now())) {
    ++reprotect_recovered_;
    NotifyAction();
    return;
  }
  if (attempt >= config_.reprotect_max_retries) {
    ++reprotect_exhausted_;
    return;
  }
  queue_.Schedule(
      queue_.now() + JitteredBackoff(rng_, config_.reprotect_backoff, attempt),
      [this, id, attempt] { ReprotectAttempt(id, attempt + 1); });
}

void ProtocolEngine::ReactiveRecovery(ConnId id, Time failed_at) {
  const core::DrConnection* conn = net_.Find(id);
  if (conn == nullptr) return;
  const NodeId src = conn->src;
  const NodeId dst = conn->dst;
  const Bandwidth bw = conn->bw;
  // The source tears down the broken connection and starts over.
  net_.ReleaseConnection(id);
  NotifyAction();
  ReactiveAttempt(id, src, dst, bw, failed_at, 0);
}

void ProtocolEngine::ReactiveAttempt(ConnId id, NodeId src, NodeId dst,
                                     Bandwidth bw, Time failed_at,
                                     int attempt) {
  DRTP_CHECK_MSG(scheme_ != nullptr && db_ != nullptr,
                 "reactive recovery needs a routing scheme");
  net_.PublishTo(*db_, queue_.now());
  const core::RouteSelection sel =
      scheme_->SelectRoutes(net_, *db_, src, dst, bw);
  const auto give_up_or_retry = [this, id, src, dst, bw, failed_at,
                                 attempt] {
    if (attempt + 1 > config_.reactive_max_retries) {
      recoveries_.push_back(RecoveryRecord{.conn = id,
                                           .failed_at = failed_at,
                                           .recovered_at = queue_.now(),
                                           .success = false,
                                           .retries = attempt});
      return;
    }
    queue_.Schedule(
        queue_.now() + JitteredBackoff(rng_, config_.reactive_backoff, attempt),
        [this, id, src, dst, bw, failed_at, attempt] {
          ReactiveAttempt(id, src, dst, bw, failed_at, attempt + 1);
        });
  };
  if (!sel.primary.has_value()) {
    give_up_or_retry();
    return;
  }
  SetupConnection(id, *sel.primary, std::nullopt, bw,
                  [this, failed_at, attempt, give_up_or_retry](
                      ConnId conn_id, bool ok) {
                    if (ok) {
                      recoveries_.push_back(
                          RecoveryRecord{.conn = conn_id,
                                         .failed_at = failed_at,
                                         .recovered_at = queue_.now(),
                                         .success = true,
                                         .retries = attempt});
                    } else {
                      give_up_or_retry();
                    }
                  });
}

RunningStat ProtocolEngine::SuccessLatencies() const {
  RunningStat stat;
  for (const RecoveryRecord& r : recoveries_) {
    if (r.success) stat.Add(r.latency());
  }
  return stat;
}

double ProtocolEngine::RecoveryRatio() const {
  if (recoveries_.empty()) return 0.0;
  std::int64_t ok = 0;
  for (const RecoveryRecord& r : recoveries_) ok += r.success;
  return static_cast<double>(ok) /
         static_cast<double>(recoveries_.size());
}

}  // namespace drtp::proto
