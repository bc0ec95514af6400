// drtp.snap/1 — periodic engine state snapshots.
//
// A snapshot is a two-line text file:
//
//   {"schema":"drtp.snap/1","config":...,"wal_offset":N,...}\n
//   digest <16 hex chars>\n
//
// where the digest line is FNV-1a over the body line including its
// newline (the checkpoint-journal encoding). The body serializes the
// full recovery cut: virtual time, engine stats, scheme history state,
// down links, and every connection's routes — the ledger and APLV are
// NOT serialized because they are pure functions of that cut (the
// auditor's ground-truth rebuild proves it); restore re-establishes the
// table through DrtpNetwork and re-derives them, then verifies the
// recorded NetworkStateDigest byte-for-byte.
//
// `wal_offset` binds the snapshot to a drtp.wal/1 record boundary: the
// log's logical end (Wal::bytes()) at the moment the snapshot was taken
// (always between batches). Recovery loads the snapshot, then replays only WAL records
// past that offset. Files are written tmp + fsync + rename + directory
// fsync so a crash mid-snapshot leaves the previous one intact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "drtp/network.h"
#include "svc/engine.h"

namespace drtp::svc {

inline constexpr char kSnapshotSchema[] = "drtp.snap/1";

struct SnapshotConn {
  ConnId id = kInvalidConn;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bandwidth bw = 0;
  std::vector<LinkId> primary;
  std::vector<std::vector<LinkId>> backups;
};

struct Snapshot {
  std::uint64_t config_digest = 0;
  std::uint64_t wal_offset = 0;
  std::int64_t t = 0;
  std::uint64_t state_digest = 0;
  EngineStats stats;
  std::string scheme;        ///< scheme name (RoutingScheme::name)
  std::string scheme_state;  ///< RoutingScheme::SaveState payload
  std::vector<LinkId> down_links;
  std::vector<SnapshotConn> conns;  ///< ascending by id
};

/// Serializes the engine's recovery cut as the snapshot body line
/// (without trailing newline). Also the snapshot_serialize
/// micro-benchmark kernel body.
std::string RenderSnapshotBody(const core::DrtpNetwork& net,
                               const EngineStats& stats, std::int64_t t,
                               std::uint64_t config_digest,
                               std::uint64_t wal_offset,
                               std::string_view scheme_name,
                               std::string_view scheme_state);

/// Inverse of RenderSnapshotBody; throws drtp::ParseError.
Snapshot ParseSnapshotBody(std::string_view body);

/// Writes body + digest line via tmp + fsync + rename (atomic replace),
/// then fsyncs the directory so the rename itself is durable.
bool WriteSnapshotFile(const std::string& path, std::string_view body,
                       std::string* error);

/// Reads and digest-verifies a snapshot file; throws drtp::ParseError on
/// a missing file, a bad digest line, or a malformed body.
Snapshot LoadSnapshotFile(const std::string& path);

}  // namespace drtp::svc
