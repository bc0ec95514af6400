// drtpd — the online DR-connection admission daemon.
//
// Loads a topology, owns the authoritative network state (connection
// table, bandwidth ledger, link-state database), and serves drtp.rpc/1
// requests (admit / release / fail-link / repair-link / stats) over a
// local unix stream socket with length-prefixed JSON frames. One poll loop
// reads and decodes requests and executes them in batches — one LSDB
// snapshot per batch — whenever its input is quiet. See docs/DRTPD.md.
//
//   drtpd --socket=/tmp/drtpd.sock --topo=net.topo --scheme=D-LSR
//
// SIGTERM / SIGINT trigger a graceful drain: every frame already received
// is answered, the final audit runs, and the process exits 0 (3 when the
// auditor recorded violations, matching drtpsim/drtpsweep conventions;
// 2 on startup/usage errors).
//
// Crash durability (--wal / --snapshot / --recover, docs/DRTPD.md):
// with --wal every committed batch is group-fsynced to a drtp.wal/1 log
// before its responses are released, and --snapshot-interval writes
// periodic drtp.snap/1 snapshots. After a SIGKILL, restarting with
// --recover truncates the torn WAL tail, loads the snapshot, replays the
// suffix, audits the recovered state, and only then opens the socket —
// reaching a NetworkStateDigest byte-identical to an uninterrupted run.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/digest.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/log.h"
#include "drtp/manager.h"
#include "fault/auditor.h"
#include "net/graphio.h"
#include "obs/flight_recorder.h"
#include "svc/engine.h"
#include "svc/server.h"
#include "svc/wal.h"

using namespace drtp;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "drtpd: %s\n", message.c_str());
  return 2;
}

svc::Server* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->Shutdown();
}

void HandleUserSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->TriggerUserEvent();
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("drtpd");
  auto& socket_path =
      flags.String("socket", "", "unix socket path to serve on (required)");
  auto& topo_path = flags.String("topo", "", "topology file (required)");
  auto& scheme = flags.String(
      "scheme", "D-LSR",
      "routing scheme (D-LSR|P-LSR|BF|NoBackup|{D,P}-LSR-SRLG-{SOFT,HARD}|"
      "SRLG-PAIR|...)");
  auto& seed = flags.Int64("seed", 1, "scheme seed (RandomBackup)");
  auto& backups = flags.Int64("backups", 1, "backups per connection", 0, 8);
  auto& dedicated =
      flags.Bool("dedicated_spares", false, "disable backup multiplexing");
  auto& batch = flags.Int64("batch", 64, "max admissions per LSDB snapshot",
                            1, 4096);
  auto& audit_interval = flags.Int64(
      "audit-interval", 0,
      "audit invariants every N committed batches (0 = off); failure "
      "events and the drain audit always run when enabled",
      0, 1000000);
  auto& audit_out = flags.String(
      "audit-out", "", "drtp.audit/1 JSONL file (default: stderr)");
  auto& request_log = flags.String(
      "request-log", "",
      "write the replayable request log (scenario file) here on drain");
  auto& flight_dump = flags.String(
      "flight-dump", "",
      "write flight-recorder dumps (drtp.trace/1 JSONL) here on SIGUSR1, "
      "first audit violation, or fatal error");
  auto& wal_path = flags.String(
      "wal", "",
      "drtp.wal/1 write-ahead log: group-fsync every committed batch "
      "before its responses are released (empty = no durability)");
  auto& snapshot_path = flags.String(
      "snapshot", "",
      "drtp.snap/1 state snapshot file (default: <wal>.snap when --wal "
      "is set)");
  auto& snapshot_interval = flags.Int64(
      "snapshot-interval", 0,
      "write a snapshot every N committed batches (0 = only on drain)",
      0, 1000000);
  auto& recover = flags.Bool(
      "recover", false,
      "recover from --wal (+ snapshot when present) before serving: "
      "truncate the torn tail, restore, replay, audit");
  auto& max_inflight = flags.Int64(
      "max-inflight", 0,
      "answer a frame that finds this many requests queued and not yet "
      "executed with an 'overloaded' response, then run the queue "
      "(0 = unbounded; must be below --batch, which runs a full queue "
      "at once)",
      0, 1 << 20);
  auto& verbose = flags.Bool("verbose", false, "log at info level");
  flags.Parse(argc, argv);

  if (socket_path.empty()) return Fail("--socket is required");
  if (topo_path.empty()) return Fail("--topo is required");
  if (max_inflight > 0 && max_inflight >= batch) {
    return Fail("--max-inflight must be below --batch (a full batch runs "
                "at once, so the queue never reaches --batch)");
  }
  if (recover && wal_path.empty()) return Fail("--recover requires --wal");
  if (!snapshot_path.empty() && wal_path.empty()) {
    return Fail("--snapshot requires --wal (snapshots bind to WAL offsets)");
  }
  const std::string snap_path =
      (!snapshot_path.empty() || wal_path.empty()) ? snapshot_path
                                                   : wal_path + ".snap";
  if (verbose) SetLogLevel(LogLevel::kInfo);

  try {
    std::ifstream in(topo_path);
    if (!in.good()) {
      return Fail("cannot open topology file '" + topo_path + "'");
    }
    const net::Topology topo = net::ReadTopology(in);

    std::ofstream audit_file;
    svc::EngineOptions eo;
    eo.scheme = scheme;
    eo.seed = static_cast<std::uint64_t>(seed);
    eo.num_backups = static_cast<int>(backups);
    eo.spare_mode = dedicated ? core::SpareMode::kDedicated
                              : core::SpareMode::kMultiplexed;
    eo.audit_interval = static_cast<int>(audit_interval);
    if (audit_interval > 0) {
      if (!audit_out.empty()) {
        audit_file.open(audit_out, std::ios::trunc);
        if (!audit_file.good()) {
          return Fail("cannot write '" + audit_out + "'");
        }
        eo.audit_out = &audit_file;
      } else {
        eo.audit_out = &std::cerr;
      }
    }
    eo.keep_request_log = !request_log.empty();
    eo.flight_dump_path = flight_dump;
    eo.snapshot_interval = static_cast<int>(snapshot_interval);
    eo.snapshot_path = snap_path;
    svc::Engine engine(topo, std::move(eo));

    // Durability bring-up, strictly before the socket opens: recover (or
    // refuse a stale WAL), audit the recovered state, then attach the log.
    std::unique_ptr<svc::Wal> wal;
    if (!wal_path.empty()) {
      if (recover) {
        const svc::RecoverReport rep = engine.Recover(wal_path, snap_path);
        // The auditor gates the socket: a recovered state that violates
        // the invariants must never serve traffic (exit 3, like drain).
        fault::AuditorOptions ao;
        ao.out = &std::cerr;
        fault::Auditor auditor(ao);
        auditor.Check(engine.network(), engine.virtual_now(),
                      "post_recovery", nullptr);
        if (!auditor.ok()) {
          std::fprintf(stderr,
                       "drtpd: recovered state failed the audit (%lld "
                       "violations) — refusing to serve\n",
                       static_cast<long long>(auditor.violation_count()));
          return 3;
        }
        std::fprintf(
            stderr,
            "drtpd: recovered%s: %lld batches (%lld events) replayed, "
            "%llu WAL bytes valid, %llu truncated, digest %s\n",
            rep.from_snapshot ? " from snapshot" : "",
            static_cast<long long>(rep.batches_replayed),
            static_cast<long long>(rep.events_replayed),
            static_cast<unsigned long long>(rep.wal_valid_bytes),
            static_cast<unsigned long long>(rep.wal_truncated_bytes),
            DigestHex(engine.StateDigest()).c_str());
      } else if (::access(wal_path.c_str(), F_OK) == 0) {
        // An existing WAL without --recover means a previous run's state
        // would be silently forgotten — make the operator decide.
        return Fail("WAL '" + wal_path +
                    "' already exists; restart with --recover or remove it");
      }
      std::string wal_error;
      wal = svc::Wal::Open(wal_path, engine.ConfigDigest(), &wal_error);
      if (wal == nullptr) return Fail(wal_error);
      engine.AttachWal(wal.get());
    }

    svc::ServerOptions so;
    so.socket_path = socket_path;
    so.pipeline.batch_max = static_cast<int>(batch);
    so.pipeline.max_inflight = max_inflight;
    if (!flight_dump.empty()) {
      // SIGUSR1 → self-pipe → this callback on the poll thread: a live,
      // non-disruptive post-mortem snapshot of recent daemon events.
      so.on_user_signal = [&flight_dump] {
        if (obs::FlightRecorder::Global().DumpToFile(flight_dump, "sigusr1")) {
          DRTP_LOG_INFO << "flight recorder dumped to " << flight_dump;
        } else {
          DRTP_LOG_WARN << "flight dump to " << flight_dump << " failed";
        }
      };
    }
    svc::Server server(engine, so);
    // Handlers go in before the socket opens: a drain signal sent the
    // instant the socket appears must never hit the default handler (a
    // pre-Run Shutdown just queues a self-pipe byte Run reads at once).
    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGUSR1, HandleUserSignal);
    // A client that vanishes mid-response must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    std::string error;
    if (!server.Start(&error)) return Fail(error);

    DRTP_LOG_INFO << "drtpd serving on " << socket_path << " ("
                  << topo.num_nodes() << " nodes, " << topo.num_links()
                  << " links, scheme " << scheme << ")";
    server.Run();
    g_server = nullptr;

    const std::int64_t violations = engine.FinalAudit();
    if (wal != nullptr && !snap_path.empty()) {
      // Drain-time snapshot: the next --recover restores it directly and
      // replays nothing.
      std::string snap_error;
      if (!engine.WriteSnapshot(&snap_error)) {
        DRTP_LOG_WARN << "drain snapshot failed: " << snap_error;
      }
    }
    if (!request_log.empty()) {
      std::ofstream os(request_log, std::ios::trunc);
      if (!os.good()) return Fail("cannot write '" + request_log + "'");
      engine.RequestLog().Save(os);
    }
    const svc::EngineStats& s = engine.stats();
    std::fprintf(stderr,
                 "drtpd: drained; %lld frames (%lld errors), %lld admitted, "
                 "%lld blocked, %lld released, %lld batches, "
                 "%lld audit checks, %lld violations, digest %s%s\n",
                 static_cast<long long>(s.frames),
                 static_cast<long long>(s.errors),
                 static_cast<long long>(s.admitted),
                 static_cast<long long>(s.blocked),
                 static_cast<long long>(s.released),
                 static_cast<long long>(s.batches),
                 static_cast<long long>(engine.audit_checks()),
                 static_cast<long long>(violations),
                 DigestHex(engine.StateDigest()).c_str(),
                 violations > 0 ? " — INVARIANTS BROKEN" : "");
    return violations > 0 ? 3 : 0;
  } catch (const std::exception& e) {
    // Fatal error: leave the recent-event trail next to the error message.
    if (!flight_dump.empty()) {
      obs::FlightRecorder::Global().DumpToFile(flight_dump, "fatal_error");
    }
    return Fail(e.what());
  }
}
