// drtp.wal/1 — the daemon's write-ahead log.
//
// Binary record framing, one record per committed engine batch:
//
//   [u32 BE payload length][payload][u64 BE FNV-1a(payload)]
//
// The first record is a header whose payload binds the engine config
// digest (scheme, seed, backup count, spare mode, topology shape) —
// replaying a WAL against a differently-configured engine would produce
// silently divergent state, so RecoverWal refuses it up front. Every
// later record's payload is the JSON-rendered list of that batch's
// *effective* events: admits (including blocked ones — they advance the
// virtual clock and the RandomBackup RNG), releases of live connections,
// and enacted link failures/repairs. Error-answered frames and no-ops
// are state-neutral and never logged.
//
// Durability contract: Engine::ExecuteBatch appends exactly one record
// and fsyncs it (group commit) before the batch's responses are released
// to clients. A crash therefore loses only unanswered requests, which
// clients retry; recovery replays the log through the identical batch
// path and reaches a byte-identical NetworkStateDigest.
//
// Recovery discipline mirrors runner/checkpoint.h's RecoverCheckpoint:
// scan forward verifying each record's digest, stop at the first torn or
// corrupt record, truncate the file to the verified prefix.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/socket.h"
#include "sim/scenario.h"

namespace drtp::svc {

inline constexpr char kWalSchema[] = "drtp.wal/1";

/// Corruption guard while scanning: no legitimate record (header or
/// batch) comes close to this, so a larger declared length means the
/// length field itself is torn garbage.
inline constexpr std::uint64_t kMaxWalRecordBytes = 16u << 20;  // 16 MiB

/// Renders a batch-record payload (JSON: {"schema":...,"ev":[...]}).
/// Only the four daemon-effective event kinds are accepted (checked).
std::string RenderWalBatchPayload(std::span<const sim::ScenarioEvent> events);

/// Inverse of RenderWalBatchPayload; throws drtp::ParseError.
std::vector<sim::ScenarioEvent> ParseWalBatchPayload(std::string_view payload);

/// Frames one payload as a complete record (length + payload + digest).
std::string EncodeWalRecord(std::string_view payload);

/// One recovered batch plus the file offset just past its record —
/// snapshots bind to these boundaries (drtp.snap/1 `wal_offset`).
struct WalBatch {
  std::uint64_t end_offset = 0;
  std::vector<sim::ScenarioEvent> events;
};

struct WalRecovery {
  bool existed = false;               ///< file was present (even empty)
  std::uint64_t valid_bytes = 0;      ///< file size after truncation
  std::uint64_t truncated_bytes = 0;  ///< torn-tail bytes dropped
  std::uint64_t header_end = 0;       ///< offset just past the header record
  std::vector<WalBatch> batches;
};

/// Scans `path`, verifies record digests in order, truncates the file to
/// the verified prefix (torn/corrupt tail bytes are dropped on disk, not
/// just skipped), and returns the decoded batches. A missing file — or a
/// file whose very first record is torn — recovers to an empty log. A
/// *complete* header whose config digest differs from `config_digest`
/// throws ParseError: that WAL belongs to a different daemon.
WalRecovery RecoverWal(const std::string& path, std::uint64_t config_digest);

/// Append handle. Not thread-safe: only the engine's batch path appends.
class Wal {
 public:
  /// Opens `path` for appending. A missing or empty file gets the header
  /// record written and fsynced; a non-empty file is assumed to have been
  /// through RecoverWal already (Open seeks to the end without
  /// rescanning). Returns null + *error on I/O failure.
  static std::unique_ptr<Wal> Open(const std::string& path,
                                   std::uint64_t config_digest,
                                   std::string* error);

  /// Appends one batch record and fsyncs — the group commit. False +
  /// *error (wire.h WriteStatus taxonomy names) on any write or sync
  /// failure; the caller must treat that as fatal (responses for the
  /// batch must not be released without durability).
  bool AppendBatch(std::span<const sim::ScenarioEvent> events,
                   std::string* error);

  /// Current end offset — the boundary a snapshot taken now binds to.
  std::uint64_t bytes() const { return bytes_; }
  std::int64_t appended_batches() const { return appended_batches_; }
  const std::string& path() const { return path_; }

 private:
  Wal(UniqueFd fd, std::string path, std::uint64_t bytes)
      : fd_(std::move(fd)), path_(std::move(path)), bytes_(bytes) {}

  bool AppendRecord(std::string_view payload, std::string* error);

  UniqueFd fd_;
  std::string path_;
  std::uint64_t bytes_ = 0;
  std::int64_t appended_batches_ = 0;
};

}  // namespace drtp::svc
