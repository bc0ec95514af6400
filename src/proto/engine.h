// Message-level DRTP protocol engine (§2.2 steps 1–4, timed).
//
// Everything else in the library treats connection management as atomic;
// this engine runs it over the discrete-event queue with per-hop message
// latency, which is what the paper's motivation is about: a *proactive*
// backup is promoted after
//     detection + report-to-source + activation-along-backup
// message delays (tens of milliseconds), while a *reactive* scheme must
// re-run admission under duress — route discovery, hop-by-hop setup, and
// Banerjea-style randomly-jittered exponential-backoff retries when the
// contended setup fails — which the paper notes "can take several seconds
// or longer, especially in heavily-loaded networks" (§1).
//
// The engine wraps a DrtpNetwork: resources commit at the simulated time
// the deciding message arrives, so simultaneous recoveries contend in
// arrival order exactly as racing packets would.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "lsdb/link_state_db.h"
#include "sim/event_queue.h"

namespace drtp::proto {

struct ProtocolConfig {
  /// One-hop message latency (propagation + processing), seconds.
  Time link_delay = 0.001;
  /// Time for a router to declare an adjacent link dead (missed
  /// heartbeats), seconds.
  Time detection_delay = 0.020;
  /// Reactive mode: maximum re-establishment attempts per failure.
  int reactive_max_retries = 4;
  /// Reactive mode: base backoff before the k-th retry; doubles each time
  /// and is jittered by a uniform factor in [0.5, 1.5) (Banerjea's random
  /// delay, §1).
  Time reactive_backoff = 0.100;
  /// Seed for the retry jitter.
  std::uint64_t seed = 1;
  /// Proactive step 4: when immediate re-protection finds no feasible
  /// backup the connection degrades to *unprotected* and retries with
  /// jittered exponential backoff (same shape as the reactive retries).
  /// 0 disables the retries — degraded connections stay exposed.
  int reprotect_max_retries = 6;
  /// Base backoff before the k-th re-protection retry; doubles each time,
  /// jittered by a uniform factor in [0.5, 1.5).
  Time reprotect_backoff = 0.500;
};

/// How a connection is restored after a failure.
enum class RecoveryMode {
  kProactive,  // DRTP: promote the pre-established backup
  kReactive,   // tear down and re-establish from scratch
};

/// One connection's recovery outcome for one failure.
struct RecoveryRecord {
  ConnId conn = kInvalidConn;
  Time failed_at = 0.0;
  /// Service restored (backup activated / new route confirmed).
  Time recovered_at = 0.0;
  bool success = false;
  int retries = 0;

  Time latency() const { return recovered_at - failed_at; }
};

/// Timed DRTP signaling over a DrtpNetwork.
class ProtocolEngine {
 public:
  /// `scheme` and `db` are used for reactive re-routing and proactive
  /// step-4 re-protection; both may be null, disabling those behaviours.
  ProtocolEngine(core::DrtpNetwork& net, sim::EventQueue& queue,
                 ProtocolConfig config, core::RoutingScheme* scheme,
                 lsdb::LinkStateDb* db);

  /// Step 1–3 of connection management, timed: a reserve message walks to
  /// the destination (reserving per-hop), a confirm walks back, then the
  /// backup-register walks the backup route. `done(id, success)` fires at
  /// the simulated completion instant. On a mid-path reservation failure
  /// the partial reservation is released and done(false) fires after the
  /// round trip to the refusing hop.
  void SetupConnection(ConnId id, const routing::Path& primary,
                       const std::optional<routing::Path>& backup,
                       Bandwidth bw,
                       std::function<void(ConnId, bool)> done);

  /// Releases a connection (immediate; teardown latency is not modelled —
  /// it is off the recovery path).
  void TearDown(ConnId id);

  /// Fails `link` at the queue's current time and schedules the full
  /// recovery choreography for every affected connection under `mode`.
  /// Recovery outcomes are appended to recoveries() as they complete.
  void InjectLinkFailure(LinkId link, RecoveryMode mode);

  /// Correlated failure: the core::FailedLinkSet of `links` goes down at
  /// the same instant, before any affected set is computed — a backup
  /// sharing a risk group with the primary is found dead at activation
  /// time, not after. A node fails as its core::IncidentLinks, a risk
  /// group as the topology's LinksInSrlg.
  void InjectLinkSetFailure(std::span<const LinkId> links,
                            RecoveryMode mode);

  const std::vector<RecoveryRecord>& recoveries() const {
    return recoveries_;
  }

  /// Graceful-degradation counters: connections that lost protection with
  /// no immediate replacement, the backoff retries made for them, and how
  /// those retries ended.
  std::int64_t degraded() const { return degraded_; }
  std::int64_t reprotect_retries() const { return reprotect_retries_; }
  std::int64_t reprotect_recovered() const { return reprotect_recovered_; }
  std::int64_t reprotect_exhausted() const { return reprotect_exhausted_; }

  /// Invoked after every state-mutating engine action with the network
  /// and the simulated time — the fault::Auditor hook. Null = disabled.
  void set_after_action(
      std::function<void(const core::DrtpNetwork&, Time)> hook) {
    after_action_ = std::move(hook);
  }

  /// Latency statistics over successful recoveries.
  RunningStat SuccessLatencies() const;

  /// Fraction of affected connections whose service was restored.
  double RecoveryRatio() const;

  const ProtocolConfig& config() const { return config_; }

 private:
  void ProactiveRecovery(ConnId id, Time failed_at, Time report_time);
  void ReactiveRecovery(ConnId id, Time failed_at);
  void ReactiveAttempt(ConnId id, NodeId src, NodeId dst, Bandwidth bw,
                       Time failed_at, int attempt);
  /// Step-4 re-protection for a degraded connection; reschedules itself
  /// with exponential backoff until a backup registers or retries run out.
  void ReprotectAttempt(ConnId id, int attempt);
  /// Marks `id` degraded (no backup after recovery) and schedules the
  /// first re-protection retry.
  void Degrade(ConnId id);
  void NotifyAction();

  core::DrtpNetwork& net_;
  sim::EventQueue& queue_;
  ProtocolConfig config_;
  core::RoutingScheme* scheme_;
  lsdb::LinkStateDb* db_;
  Rng rng_;
  std::vector<RecoveryRecord> recoveries_;
  std::function<void(const core::DrtpNetwork&, Time)> after_action_;
  std::int64_t degraded_ = 0;
  std::int64_t reprotect_retries_ = 0;
  std::int64_t reprotect_recovered_ = 0;
  std::int64_t reprotect_exhausted_ = 0;
};

}  // namespace drtp::proto
