// svc::Engine — the daemon's single-threaded admission core.
//
// Owns the authoritative network state (DrtpNetwork), the advertised
// link-state database, and the routing scheme; executes decoded requests
// in batches. One LSDB snapshot (DrtpNetwork::PublishTo) is taken per
// batch, so every admission in the batch routes against the same
// advertisement — the amortization the admit_batch microbenchmark
// measures. Failures and repairs re-publish immediately inside the batch
// (they are rare and correctness-critical; only admit/release publishes
// are amortized).
//
// Replay equivalence: admissions run through core::AdmitConnection — the
// same code sim::RunScenario uses — and the engine can keep a replayable
// request log (sim::Scenario with virtual times 1.0, 2.0, ...). With
// batch_max=1 the per-batch snapshot degenerates to publish-per-request,
// which is exactly the simulator's instant-advertisement mode, so
// replaying the log through drtpsim reproduces the live ledger/APLV state
// bit-for-bit (svc_test pins this via NetworkStateDigest).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "drtp/manager.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "fault/auditor.h"
#include "lsdb/link_state_db.h"
#include "net/topology.h"
#include "sim/scenario.h"
#include "svc/rpc.h"

namespace drtp::svc {

class Wal;        // svc/wal.h
struct Snapshot;  // svc/snapshot.h

/// FNV-1a digest over the authoritative state a replay must reproduce:
/// connection table (id, endpoints, bandwidth, primary and backup links),
/// per-link up/down + prime/spare ledger pools, and per-link APLV
/// abridgements (L1, max). Deterministic iteration order; stable across
/// processes.
std::uint64_t NetworkStateDigest(const core::DrtpNetwork& net);

struct EngineOptions {
  /// Routing scheme label (sim::MakeScheme's vocabulary).
  std::string scheme = "D-LSR";
  /// Scheme seed (RandomBackup).
  std::uint64_t seed = 1;
  int num_backups = 1;
  core::SpareMode spare_mode = core::SpareMode::kMultiplexed;
  /// Audit every N committed batches (0 = off). Failure events and the
  /// final drain audit always run when auditing is on.
  int audit_interval = 0;
  /// drtp.audit/1 JSONL sink for violations; null = keep them in memory
  /// only. Must outlive the engine.
  std::ostream* audit_out = nullptr;
  /// Record a replayable request log (RequestLog()).
  bool keep_request_log = false;
  /// Where to write an obs::FlightRecorder dump when the auditor reports
  /// its first violation (post-mortem without --trace). Empty = no dump.
  std::string flight_dump_path;
  /// Write a drtp.snap/1 snapshot every N committed batches (0 = never).
  int snapshot_interval = 0;
  /// Snapshot destination (tmp + fsync + rename). Required when
  /// snapshot_interval > 0; also used by the explicit WriteSnapshot().
  std::string snapshot_path;
};

/// Cumulative request accounting (all-time, monotone except batch_last).
struct EngineStats {
  std::int64_t frames = 0;       ///< decoded frames seen (incl. errors)
  std::int64_t errors = 0;       ///< frames answered with ok=false
  std::int64_t admitted = 0;
  std::int64_t blocked = 0;
  std::int64_t released = 0;
  std::int64_t link_fails = 0;   ///< enacted (link was up)
  std::int64_t link_repairs = 0; ///< enacted (link was down)
  std::int64_t batches = 0;
  std::int64_t batch_last = 0;   ///< size of the batch being executed
  std::int64_t wal_batches = 0;  ///< records group-committed to the WAL
  std::int64_t snapshots = 0;    ///< drtp.snap/1 files written
};

/// What Engine::Recover did, for the startup banner and the chaos
/// harness. Recovered state-changing counters (admitted/blocked/...) are
/// exact; frames/errors/batches are approximate after a replay because
/// error-answered frames are state-neutral and never WAL-logged.
struct RecoverReport {
  bool from_snapshot = false;
  std::uint64_t wal_valid_bytes = 0;
  std::uint64_t wal_truncated_bytes = 0;
  std::int64_t batches_replayed = 0;
  std::int64_t events_replayed = 0;
};

/// Not thread-safe: the server's poll loop runs every batch on its own
/// thread, one batch at a time, which is what makes responses
/// deterministic.
class Engine {
 public:
  Engine(const net::Topology& topo, EngineOptions options);
  /// Runs `scheme` in place of sim::MakeScheme(options.scheme, ...);
  /// options.scheme still names it in the config digest and snapshots.
  Engine(const net::Topology& topo, EngineOptions options,
         std::unique_ptr<core::RoutingScheme> scheme);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes `batch` in order; returns one rendered drtp.rpc/1 response
  /// per entry, same order. Takes the batch's LSDB snapshot first.
  std::vector<std::string> ExecuteBatch(std::span<const DecodedRequest> batch);

  /// The drain audit (always runs when auditing is on). Returns the
  /// total violation count observed over the engine's lifetime.
  std::int64_t FinalAudit();

  std::uint64_t StateDigest() const { return NetworkStateDigest(net_); }

  /// FNV-1a over everything replay equivalence depends on besides the
  /// request stream: scheme label, seed, backup count, spare mode, and
  /// the topology shape (per-link endpoints + capacity). WAL headers and
  /// snapshots bind to this; recovery refuses a mismatch.
  std::uint64_t ConfigDigest() const;

  /// Crash recovery: truncate-and-verify the WAL, load the snapshot when
  /// present (restoring table/scheme state and verifying its recorded
  /// NetworkStateDigest), then replay the WAL suffix through the normal
  /// batch path. Requires a fresh engine (no requests executed). Throws
  /// drtp::ParseError on any refusal: config mismatch, snapshot digest
  /// mismatch, snapshot bound past the recovered WAL, or replay
  /// divergence. Empty `wal_path` skips the WAL (snapshot only);
  /// `snapshot_path` may name a nonexistent file (WAL-only replay).
  RecoverReport Recover(const std::string& wal_path,
                        const std::string& snapshot_path);

  /// Restores a parsed snapshot into a fresh engine: down links first,
  /// then every primary in id order (two passes — backups may overbook,
  /// so interleaving could starve a later primary of free bandwidth),
  /// then all backups, then scheme state, then a full digest check
  /// against snap.state_digest (ParseError on mismatch).
  void RestoreSnapshot(const Snapshot& snap);

  /// Writes a snapshot to options_.snapshot_path now (drain hook; the
  /// periodic cadence calls this internally). False + *error on I/O
  /// failure.
  bool WriteSnapshot(std::string* error);

  /// Attaches the write-ahead log: from here on, ExecuteBatch appends
  /// one record + sync per committed batch *before* its responses are
  /// released. Attached after construction because in --recover mode the
  /// log may only be opened for append once Recover() has truncated its
  /// torn tail. Not owned; must outlive the engine. An append failure is
  /// fatal by design — responses must never be released without their
  /// durability record.
  void AttachWal(Wal* wal) { wal_ = wal; }

  /// Points the stats RPC's `shed` gauge at the pipeline's shed counter
  /// (the engine never sheds; the server does, before decode).
  void BindShedCounter(const std::int64_t* counter) {
    shed_ = counter;
  }

  /// The replayable request log (requires keep_request_log). Contains
  /// only events sim::RunScenario would enact identically: admits
  /// (including blocked ones), releases of live connections, and enacted
  /// link failures/repairs — error-answered frames and no-ops are
  /// excluded.
  sim::Scenario RequestLog() const;

  const EngineStats& stats() const { return stats_; }
  /// Current virtual time (1 tick per state-changing event) — the
  /// timestamp recovery hands the post-recovery audit.
  Time virtual_now() const { return t_; }
  const net::Topology& topology() const { return net_.topology(); }
  const core::DrtpNetwork& network() const { return net_; }
  std::int64_t audit_checks() const;
  std::int64_t audit_violations() const;
  /// Active connections currently running without any backup.
  std::int64_t DegradedCount() const;

 private:
  std::string Execute(const Request& req);
  std::string DoAdmit(const Request& req);
  std::string DoRelease(const Request& req);
  std::string DoFailLink(const Request& req);
  std::string DoRepairLink(const Request& req);
  std::string DoStats(const Request& req);
  /// Advances virtual time and appends a log event when logging is on.
  Time NextEventTime();
  void LogEvent(sim::ScenarioEvent event);
  /// Periodic snapshot cadence (every snapshot_interval batches).
  void MaybeSnapshot();
  /// Flight-records an audit sample and, on the first violation, dumps
  /// the recorder to options_.flight_dump_path.
  void AfterAuditCheck();

  EngineOptions options_;
  core::DrtpNetwork net_;
  lsdb::LinkStateDb db_;
  std::unique_ptr<core::RoutingScheme> scheme_;
  std::unique_ptr<fault::Auditor> auditor_;
  EngineStats stats_;
  /// Virtual clock: 1.0 per state-changing event, so the request log is
  /// a well-formed scenario (strictly increasing times).
  Time t_ = 0.0;
  std::vector<sim::ScenarioEvent> log_;
  /// The current batch's effective events — the WAL group-commit buffer.
  std::vector<sim::ScenarioEvent> batch_events_;
  /// Attached log (AttachWal); null = no durability.
  Wal* wal_ = nullptr;
  /// True while Recover replays the WAL: suppresses WAL appends (the
  /// events being replayed are already durable) and snapshot cadence.
  bool replaying_ = false;
  /// Pipeline shed counter for the stats RPC (null until bound).
  const std::int64_t* shed_ = nullptr;
  bool flight_dumped_ = false;  ///< audit-violation dump fired already
};

}  // namespace drtp::svc
