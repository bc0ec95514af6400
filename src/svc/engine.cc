#include "svc/engine.h"

#include <unistd.h>

#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "drtp/admission.h"
#include "drtp/failure.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/paper.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace drtp::svc {
namespace {

/// Process-wide service counters (drtp.svc.*), resolved once.
struct SvcCounters {
  obs::Counter frames = obs::GetCounter("drtp.svc.frames");
  obs::Counter errors = obs::GetCounter("drtp.svc.errors");
  obs::Counter admits = obs::GetCounter("drtp.svc.admits");
  obs::Counter blocks = obs::GetCounter("drtp.svc.blocks");
  obs::Counter releases = obs::GetCounter("drtp.svc.releases");
  obs::Counter link_fails = obs::GetCounter("drtp.svc.link_fails");
  obs::Counter link_repairs = obs::GetCounter("drtp.svc.link_repairs");
  obs::Counter batches = obs::GetCounter("drtp.svc.batches");
};

const SvcCounters& Counters() {
  static const SvcCounters counters;
  return counters;
}

obs::FlightRecorder& Flight() { return obs::FlightRecorder::Global(); }

/// Stable small index for an error code, for flight-recorder args (the
/// recorder stores only integers). Order mirrors the taxonomy listing in
/// rpc.h / docs/DRTPD.md.
std::int64_t ErrorCodeIndex(std::string_view code) {
  constexpr std::string_view kCodes[] = {
      kErrBadFrame,  kErrBadJson,  kErrBadRequest, kErrUnknownMethod,
      kErrConnExists, kErrNotFound, kErrOutOfRange, kErrDraining,
      kErrOverloaded,
  };
  for (std::size_t i = 0; i < std::size(kCodes); ++i) {
    if (code == kCodes[i]) return static_cast<std::int64_t>(i);
  }
  return -1;
}

/// Byte-order-independent int fold (explicit little-endian byte walk).
std::uint64_t FoldInt(std::uint64_t d, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    d ^= (u >> (i * 8)) & 0xFF;
    d *= kFnv1aPrime;
  }
  return d;
}

}  // namespace

std::uint64_t NetworkStateDigest(const core::DrtpNetwork& net) {
  std::uint64_t d = kFnv1aOffset;
  const net::Topology& topo = net.topology();
  d = FoldInt(d, topo.num_nodes());
  d = FoldInt(d, topo.num_links());
  // Connection table (std::map — ascending, deterministic).
  for (const auto& [id, conn] : net.connections()) {
    d = FoldInt(d, id);
    d = FoldInt(d, conn.src);
    d = FoldInt(d, conn.dst);
    d = FoldInt(d, conn.bw);
    d = FoldInt(d, conn.primary.hops());
    for (const LinkId l : conn.primary.links()) d = FoldInt(d, l);
    d = FoldInt(d, static_cast<std::int64_t>(conn.backups.size()));
    for (const routing::Path& b : conn.backups) {
      d = FoldInt(d, b.hops());
      for (const LinkId l : b.links()) d = FoldInt(d, l);
    }
  }
  // Per-link dynamic state: up/down, ledger pools, APLV abridgements.
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    d = FoldInt(d, net.IsLinkUp(l) ? 1 : 0);
    d = FoldInt(d, net.ledger().prime(l));
    d = FoldInt(d, net.ledger().spare(l));
    d = FoldInt(d, net.aplv(l).L1());
    d = FoldInt(d, net.aplv(l).Max());
  }
  return d;
}

Engine::Engine(const net::Topology& topo, EngineOptions options)
    : Engine(topo, options,
             sim::MakeScheme(options.scheme, topo, options.seed)) {}

Engine::Engine(const net::Topology& topo, EngineOptions options,
               std::unique_ptr<core::RoutingScheme> scheme)
    : options_(std::move(options)),
      net_(topo, core::NetworkConfig{.spare_mode = options_.spare_mode,
                                     .duplex_failures = false}),
      db_(topo.num_links(), topo.num_links()),
      scheme_(std::move(scheme)) {
  DRTP_CHECK(scheme_ != nullptr);
  DRTP_CHECK(options_.num_backups >= 0);
  if (options_.audit_interval > 0) {
    auditor_ = std::make_unique<fault::Auditor>(fault::AuditorOptions{
        .out = options_.audit_out,
        .require_srlg_disjoint = scheme_->requires_srlg_disjoint_backup()});
  }
}

Engine::~Engine() = default;

Time Engine::NextEventTime() {
  t_ += 1.0;
  return t_;
}

void Engine::LogEvent(sim::ScenarioEvent event) {
  if (options_.keep_request_log) log_.push_back(event);
  // Group-commit buffer: ExecuteBatch appends these to the WAL (one
  // record, one sync) before the batch's responses are released.
  batch_events_.push_back(event);
}

std::vector<std::string> Engine::ExecuteBatch(
    std::span<const DecodedRequest> batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  if (batch.empty()) return out;
  stats_.batch_last = static_cast<std::int64_t>(batch.size());
  // One snapshot per batch: every admission in the batch routes against
  // this advertisement. Failure/repair events inside the batch
  // re-publish immediately (see DoFailLink/DoRepairLink).
  net_.PublishTo(db_, t_);
  for (const DecodedRequest& d : batch) {
    ++stats_.frames;
    Counters().frames.Add();
    if (!d.ok) {
      ++stats_.errors;
      Counters().errors.Add();
      Flight().Record(obs::FlightKind::kError, d.id,
                      ErrorCodeIndex(d.error_code));
      out.push_back(
          RenderErrorResponse(d.id, d.error_code, d.error_detail));
      continue;
    }
    out.push_back(Execute(d.request));
  }
  if (wal_ != nullptr && !replaying_ && !batch_events_.empty()) {
    // Durability point: the batch's effective events reach stable
    // storage before any of its responses leave this function. A failed
    // append (disk full, dead device) is fatal by design — releasing
    // un-durable responses would break the recovery contract.
    std::string err;
    DRTP_CHECK_MSG(wal_->AppendBatch(batch_events_, &err),
                   "wal group commit failed: " << err);
    ++stats_.wal_batches;
  }
  batch_events_.clear();
  ++stats_.batches;
  Counters().batches.Add();
  if (auditor_ != nullptr && options_.audit_interval > 0 &&
      stats_.batches % options_.audit_interval == 0) {
    auditor_->Check(net_, t_, "batch_commit", nullptr);
    AfterAuditCheck();
  }
  MaybeSnapshot();
  return out;
}

std::string Engine::Execute(const Request& req) {
  switch (req.method) {
    case Method::kAdmit:
      return DoAdmit(req);
    case Method::kRelease:
      return DoRelease(req);
    case Method::kFailLink:
      return DoFailLink(req);
    case Method::kRepairLink:
      return DoRepairLink(req);
    case Method::kStats:
      return DoStats(req);
  }
  DRTP_CHECK_MSG(false, "unreachable method");
  return {};
}

namespace {

/// Renders an error and counts it — all handler failures route through
/// here so stats_.errors matches the ok=false responses on the wire.
std::string CountedError(EngineStats& stats, std::int64_t id,
                         std::string_view code, const std::string& detail) {
  ++stats.errors;
  Counters().errors.Add();
  Flight().Record(obs::FlightKind::kError, id, ErrorCodeIndex(code));
  return RenderErrorResponse(id, code, detail);
}

}  // namespace

std::string Engine::DoAdmit(const Request& req) {
  const int nodes = net_.topology().num_nodes();
  if (req.src >= nodes || req.dst >= nodes) {
    return CountedError(stats_, req.id, kErrOutOfRange,
                        "node id out of range [0, " +
                            std::to_string(nodes) + ")");
  }
  if (net_.Find(req.conn) != nullptr) {
    return CountedError(stats_, req.id, kErrConnExists,
                        "connection " + std::to_string(req.conn) +
                            " already active");
  }
  const Time now = NextEventTime();
  LogEvent({.type = sim::ScenarioEvent::Type::kRequest,
            .time = now,
            .conn = req.conn,
            .src = req.src,
            .dst = req.dst,
            .bw = req.bw});
  const core::AdmitOutcome out = core::AdmitConnection(
      *scheme_, net_, db_, req.conn, req.src, req.dst, req.bw, now,
      core::AdmitOptions{.num_backups = options_.num_backups});
  JsonWriter w;
  w.BeginObject();
  w.Key("admitted").Bool(out.admitted);
  w.Key("conn").Int(req.conn);
  if (out.admitted) {
    ++stats_.admitted;
    Counters().admits.Add();
    Flight().Record(obs::FlightKind::kAdmit, req.conn, out.primary->hops(),
                    out.has_backup() ? 1 : 0);
    w.Key("primary_hops").Int(out.primary->hops());
    w.Key("protected").Bool(out.has_backup());
    w.Key("backup_hops").Int(out.backup.has_value() ? out.backup->hops() : 0);
    w.Key("overbooked_hops").Int(out.overbooked_hops);
    w.Key("extra_backups").Int(out.extra_backups);
  } else {
    ++stats_.blocked;
    Counters().blocks.Add();
    Flight().Record(obs::FlightKind::kBlock, req.conn);
  }
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoRelease(const Request& req) {
  if (net_.Find(req.conn) == nullptr) {
    return CountedError(stats_, req.id, kErrNotFound,
                        "no active connection " + std::to_string(req.conn));
  }
  const Time now = NextEventTime();
  LogEvent({.type = sim::ScenarioEvent::Type::kRelease,
            .time = now,
            .conn = req.conn});
  net_.ReleaseConnection(req.conn);
  ++stats_.released;
  Counters().releases.Add();
  Flight().Record(obs::FlightKind::kRelease, req.conn, net_.ActiveCount());
  JsonWriter w;
  w.BeginObject();
  w.Key("released").Bool(true);
  w.Key("conn").Int(req.conn);
  w.Key("active").Int(net_.ActiveCount());
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoFailLink(const Request& req) {
  const int links = net_.topology().num_links();
  if (req.link >= links) {
    return CountedError(stats_, req.id, kErrOutOfRange,
                        "link id out of range [0, " +
                            std::to_string(links) + ")");
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("link").Int(req.link);
  if (!net_.IsLinkUp(req.link)) {
    w.Key("changed").Bool(false);
    w.EndObject();
    return RenderOkResponse(req.id, w.str());
  }
  const Time now = NextEventTime();
  LogEvent({.type = sim::ScenarioEvent::Type::kLinkFail,
            .time = now,
            .link = req.link});
  core::RoutingScheme* reroute =
      options_.num_backups > 0 ? scheme_.get() : nullptr;
  const core::SwitchoverReport report =
      core::ApplyLinkFailure(net_, req.link, now, reroute, &db_);
  // A reroute scheme already saw the failure inside ApplyLinkFailure.
  if (reroute == nullptr) scheme_->OnTopologyChanged(net_);
  // Failures re-advertise immediately even mid-batch: later admissions in
  // this batch must not route onto a dead link.
  net_.PublishTo(db_, now);
  ++stats_.link_fails;
  Counters().link_fails.Add();
  Flight().Record(obs::FlightKind::kLinkFail, req.link,
                  static_cast<std::int64_t>(report.recovered.size()),
                  static_cast<std::int64_t>(report.dropped.size()),
                  static_cast<std::int64_t>(report.backups_lost.size()));
  // Per-connection protection transitions: step 4 re-protected some of
  // the affected connections; the rest now run degraded.
  for (const ConnId c : report.rerouted) {
    Flight().Record(obs::FlightKind::kReprotect, c);
  }
  for (const std::vector<ConnId>* ids :
       {&report.recovered, &report.backups_lost}) {
    for (const ConnId c : *ids) {
      const core::DrConnection* conn = net_.Find(c);
      if (conn != nullptr && !conn->has_backup()) {
        Flight().Record(obs::FlightKind::kDegrade, c);
      }
    }
  }
  if (auditor_ != nullptr) {
    auditor_->Check(net_, now, "link_fail", &report);
    AfterAuditCheck();
  }
  w.Key("changed").Bool(true);
  w.Key("recovered").Int(static_cast<std::int64_t>(report.recovered.size()));
  w.Key("dropped").Int(static_cast<std::int64_t>(report.dropped.size()));
  w.Key("backups_lost")
      .Int(static_cast<std::int64_t>(report.backups_lost.size()));
  w.Key("rerouted").Int(static_cast<std::int64_t>(report.rerouted.size()));
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoRepairLink(const Request& req) {
  const int links = net_.topology().num_links();
  if (req.link >= links) {
    return CountedError(stats_, req.id, kErrOutOfRange,
                        "link id out of range [0, " +
                            std::to_string(links) + ")");
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("link").Int(req.link);
  if (net_.IsLinkUp(req.link)) {
    w.Key("changed").Bool(false);
    w.EndObject();
    return RenderOkResponse(req.id, w.str());
  }
  const Time now = NextEventTime();
  LogEvent({.type = sim::ScenarioEvent::Type::kLinkRepair,
            .time = now,
            .link = req.link});
  net_.SetLinkUp(req.link);
  scheme_->OnTopologyChanged(net_);
  net_.PublishTo(db_, now);
  ++stats_.link_repairs;
  Counters().link_repairs.Add();
  Flight().Record(obs::FlightKind::kLinkRepair, req.link);
  w.Key("changed").Bool(true);
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::string Engine::DoStats(const Request& req) {
  const Ratio pbk = core::EvaluateAllSingleLinkFailures(net_);
  JsonWriter w;
  w.BeginObject();
  w.Key("nodes").Int(net_.topology().num_nodes());
  w.Key("links").Int(net_.topology().num_links());
  w.Key("active").Int(net_.ActiveCount());
  w.Key("frames").Int(stats_.frames);
  w.Key("errors").Int(stats_.errors);
  w.Key("admitted").Int(stats_.admitted);
  w.Key("blocked").Int(stats_.blocked);
  w.Key("released").Int(stats_.released);
  w.Key("link_fails").Int(stats_.link_fails);
  w.Key("link_repairs").Int(stats_.link_repairs);
  w.Key("batches").Int(stats_.batches);
  w.Key("prime_kbps").Int(net_.ledger().TotalPrime());
  w.Key("spare_kbps").Int(net_.ledger().TotalSpare());
  w.Key("overbooked_links")
      .Int(static_cast<std::int64_t>(net_.OverbookedLinks().size()));
  w.Key("pbk_hits").Int(pbk.hits);
  w.Key("pbk_trials").Int(pbk.trials);
  w.Key("pbk").Double(pbk.value());
  w.Key("digest").String(DigestHex(NetworkStateDigest(net_)));
  w.Key("audit_checks").Int(audit_checks());
  w.Key("audit_violations").Int(audit_violations());
  // Engine gauges — deterministic for a fixed request sequence, like
  // every field above.
  w.Key("degraded").Int(DegradedCount());
  w.Key("batch_last").Int(stats_.batch_last);
  w.Key("request_log_events").Int(static_cast<std::int64_t>(log_.size()));
  // PR 9 additions — all deterministic for a fixed request sequence
  // (shed is 0 unless the server actually hit its admission bound).
  w.Key("wal_batches").Int(stats_.wal_batches);
  w.Key("wal_bytes").Int(
      wal_ != nullptr ? static_cast<std::int64_t>(wal_->bytes()) : 0);
  w.Key("snapshots").Int(stats_.snapshots);
  w.Key("shed").Int(shed_ != nullptr ? *shed_ : 0);
  if (req.metrics) {
    // Opt-in only: the snapshot holds wall-clock timing histograms and
    // process-global counters, which are NOT deterministic.
    w.Key("metrics");
    obs::Registry::Global().Snapshot().WriteJson(w, /*include_timings=*/true);
  }
  w.EndObject();
  return RenderOkResponse(req.id, w.str());
}

std::int64_t Engine::DegradedCount() const {
  std::int64_t n = 0;
  for (const auto& [id, conn] : net_.connections()) {
    if (!conn.has_backup()) ++n;
  }
  return n;
}

void Engine::AfterAuditCheck() {
  Flight().Record(obs::FlightKind::kAuditSample, audit_checks(),
                  audit_violations());
  if (!flight_dumped_ && audit_violations() > 0 &&
      !options_.flight_dump_path.empty()) {
    flight_dumped_ = true;
    Flight().DumpToFile(options_.flight_dump_path, "audit_violation");
  }
}

std::int64_t Engine::FinalAudit() {
  if (auditor_ != nullptr) {
    auditor_->Check(net_, t_, "drain", nullptr);
    AfterAuditCheck();
  }
  return audit_violations();
}

sim::Scenario Engine::RequestLog() const {
  DRTP_CHECK_MSG(options_.keep_request_log,
                 "request log was not enabled on this engine");
  sim::Scenario s;
  s.traffic.duration = t_ + 1.0;
  s.events = log_;
  return s;
}

std::uint64_t Engine::ConfigDigest() const {
  std::uint64_t d = kFnv1aOffset;
  d = Fnv1aExtend(d, options_.scheme);
  d = FoldInt(d, static_cast<std::int64_t>(options_.seed));
  d = FoldInt(d, options_.num_backups);
  d = FoldInt(d,
              options_.spare_mode == core::SpareMode::kMultiplexed ? 0 : 1);
  const net::Topology& topo = net_.topology();
  d = FoldInt(d, topo.num_nodes());
  d = FoldInt(d, topo.num_links());
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const net::Link& link = topo.link(l);
    d = FoldInt(d, link.src);
    d = FoldInt(d, link.dst);
    d = FoldInt(d, link.capacity);
  }
  return d;
}

bool Engine::WriteSnapshot(std::string* error) {
  DRTP_CHECK_MSG(!options_.snapshot_path.empty(),
                 "WriteSnapshot without snapshot_path");
  // Counted before rendering so a recovered engine's `snapshots` stat
  // includes the file it was restored from.
  ++stats_.snapshots;
  const std::uint64_t wal_offset = wal_ != nullptr ? wal_->bytes() : 0;
  const std::string body =
      RenderSnapshotBody(net_, stats_, static_cast<std::int64_t>(t_),
                         ConfigDigest(), wal_offset, scheme_->name(),
                         scheme_->SaveState());
  if (!WriteSnapshotFile(options_.snapshot_path, body, error)) {
    --stats_.snapshots;
    return false;
  }
  return true;
}

void Engine::MaybeSnapshot() {
  if (replaying_ || options_.snapshot_interval <= 0) return;
  if (stats_.batches % options_.snapshot_interval != 0) return;
  std::string err;
  DRTP_CHECK_MSG(WriteSnapshot(&err), "snapshot failed: " << err);
}

void Engine::RestoreSnapshot(const Snapshot& snap) {
  DRTP_CHECK_MSG(net_.ActiveCount() == 0 && t_ == 0.0,
                 "RestoreSnapshot on a non-fresh engine");
  if (snap.config_digest != ConfigDigest()) {
    throw ParseError(
        "snapshot config digest mismatch: the file was written under a "
        "different scheme/seed/backups/spare-mode/topology");
  }
  if (snap.scheme != scheme_->name()) {
    throw ParseError("snapshot scheme '" + snap.scheme +
                     "' != engine scheme '" + scheme_->name() + "'");
  }
  const int links = net_.topology().num_links();
  for (const LinkId l : snap.down_links) {
    if (l < 0 || l >= links) {
      throw ParseError("snapshot down link out of range");
    }
    net_.SetLinkDown(l);
  }
  // Pass 1: every primary, ascending by id. All primaries must land
  // before any backup registers — RegisterBackup may overbook links, and
  // an interleaved overbooked backup could consume the free bandwidth a
  // later primary needs (EstablishConnection never draws from spare).
  for (const SnapshotConn& c : snap.conns) {
    const auto primary = routing::Path::FromLinks(net_.topology(), c.primary);
    if (!primary.has_value()) {
      throw ParseError("snapshot conn " + std::to_string(c.id) +
                       " primary is not a path in this topology");
    }
    if (!net_.EstablishConnection(c.id, *primary, c.bw, /*now=*/0.0)) {
      throw ParseError("snapshot conn " + std::to_string(c.id) +
                       " does not fit the topology (down link or "
                       "insufficient bandwidth)");
    }
  }
  // Pass 2: backups, in the serialized order (RegisterBackup never
  // rejects; overbooking is re-derived exactly as it originally was).
  for (const SnapshotConn& c : snap.conns) {
    for (const std::vector<LinkId>& b : c.backups) {
      const auto backup = routing::Path::FromLinks(net_.topology(), b);
      if (!backup.has_value()) {
        throw ParseError("snapshot conn " + std::to_string(c.id) +
                         " backup is not a path in this topology");
      }
      net_.RegisterBackup(c.id, *backup);
    }
  }
  try {
    scheme_->LoadState(snap.scheme_state);
  } catch (const ParseError& e) {
    throw ParseError(std::string("snapshot scheme state: ") + e.what());
  }
  scheme_->OnTopologyChanged(net_);
  stats_ = snap.stats;
  t_ = static_cast<Time>(snap.t);
  const std::uint64_t got = NetworkStateDigest(net_);
  if (got != snap.state_digest) {
    throw ParseError("restored state digest " + DigestHex(got) +
                     " != snapshot state_digest " +
                     DigestHex(snap.state_digest));
  }
}

namespace {

/// Lifts a WAL event back into the request shape ExecuteBatch consumes.
/// Replay responses are discarded, so the request id is immaterial.
DecodedRequest RequestFromEvent(const sim::ScenarioEvent& e) {
  Request r;
  r.id = 0;
  switch (e.type) {
    case sim::ScenarioEvent::Type::kRequest:
      r.method = Method::kAdmit;
      r.conn = e.conn;
      r.src = e.src;
      r.dst = e.dst;
      r.bw = e.bw;
      break;
    case sim::ScenarioEvent::Type::kRelease:
      r.method = Method::kRelease;
      r.conn = e.conn;
      break;
    case sim::ScenarioEvent::Type::kLinkFail:
      r.method = Method::kFailLink;
      r.link = e.link;
      break;
    case sim::ScenarioEvent::Type::kLinkRepair:
      r.method = Method::kRepairLink;
      r.link = e.link;
      break;
    default:
      throw ParseError("wal event kind is not replayable");
  }
  DecodedRequest out;
  out.ok = true;
  out.request = r;
  out.id = 0;
  return out;
}

}  // namespace

RecoverReport Engine::Recover(const std::string& wal_path,
                              const std::string& snapshot_path) {
  DRTP_CHECK_MSG(stats_.batches == 0 && net_.ActiveCount() == 0,
                 "Recover on a non-fresh engine");
  RecoverReport rep;
  WalRecovery wal;
  if (!wal_path.empty()) {
    wal = RecoverWal(wal_path, ConfigDigest());
    rep.wal_valid_bytes = wal.valid_bytes;
    rep.wal_truncated_bytes = wal.truncated_bytes;
  }
  std::uint64_t replay_from = 0;
  if (!snapshot_path.empty() &&
      ::access(snapshot_path.c_str(), F_OK) == 0) {
    const Snapshot snap = LoadSnapshotFile(snapshot_path);
    // The snapshot must land exactly on a recovered record boundary: an
    // offset past the verified prefix means the WAL lost committed
    // records (mid-file corruption, the unrecoverable case), and an
    // unaligned offset means the files do not belong together.
    if (wal.existed) {
      bool boundary = snap.wal_offset == wal.header_end;
      for (const WalBatch& b : wal.batches) {
        boundary = boundary || snap.wal_offset == b.end_offset;
      }
      if (snap.wal_offset > wal.valid_bytes || !boundary) {
        throw ParseError(
            "snapshot is bound to wal offset " +
            std::to_string(snap.wal_offset) + " but the recovered wal has " +
            std::to_string(wal.valid_bytes) +
            " verified bytes with no matching record boundary");
      }
    } else if (snap.wal_offset != 0) {
      throw ParseError("snapshot is bound to wal offset " +
                       std::to_string(snap.wal_offset) +
                       " but no wal was recovered");
    }
    RestoreSnapshot(snap);
    rep.from_snapshot = true;
    replay_from = snap.wal_offset;
  }
  // Replay the suffix through the identical batch path. The WAL handle
  // (if any) is suppressed via replaying_ — these events are already
  // durable — and so is the snapshot cadence.
  replaying_ = true;
  try {
    for (const WalBatch& b : wal.batches) {
      if (b.end_offset <= replay_from) continue;
      std::vector<DecodedRequest> requests;
      requests.reserve(b.events.size());
      for (const sim::ScenarioEvent& e : b.events) {
        requests.push_back(RequestFromEvent(e));
      }
      const std::vector<std::string> responses = ExecuteBatch(requests);
      for (const std::string& r : responses) {
        if (r.find("\"ok\":true") == std::string::npos) {
          throw ParseError("wal replay diverged: a logged event failed "
                           "against the recovered state: " + r);
        }
      }
      // Every logged event advanced the virtual clock exactly once; a
      // mismatch means the replayed batch enacted a different set of
      // state changes than the original run.
      if (!b.events.empty() &&
          t_ != b.events.back().time) {
        throw ParseError("wal replay time divergence at batch ending at "
                         "offset " + std::to_string(b.end_offset));
      }
      ++rep.batches_replayed;
      rep.events_replayed += static_cast<std::int64_t>(b.events.size());
    }
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
  // Replayed batches were WAL records too: the recovered counter must
  // agree with what a continuation of the original process would show.
  stats_.wal_batches += rep.batches_replayed;
  return rep;
}

std::int64_t Engine::audit_checks() const {
  return auditor_ != nullptr ? auditor_->checks() : 0;
}

std::int64_t Engine::audit_violations() const {
  return auditor_ != nullptr ? auditor_->violation_count() : 0;
}

}  // namespace drtp::svc
