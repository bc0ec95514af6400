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
// and syncs it (group commit) before the batch's responses are released
// to clients. A crash therefore loses only unanswered requests, which
// clients retry; recovery replays the log through the identical batch
// path and reaches a byte-identical NetworkStateDigest.
//
// On-disk layout: the file grows in zero-filled extents (kWalFirstExtent,
// doubling up to kWalMaxExtent), each written with real zeros and
// fsynced once. A record is then pwritten at the logical end, into
// blocks that are already allocated, and made durable with fdatasync:
// the file size does not change, so the sync flushes data only and no
// journal commit for a new size rides on every batch. A cleanly closed
// Wal trims the file to its logical end, so a drained log holds exactly
// its records; a crashed one carries a zero tail past the last record.
//
// Recovery discipline mirrors runner/checkpoint.h's RecoverCheckpoint:
// scan forward verifying each record's digest, stop at the first torn or
// corrupt record, truncate the file to the verified prefix. A zero tail
// stops the scan like a torn record does: a zero length field frames an
// empty payload, and FNV-1a("") is not zero.
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

/// Extent sizes: the first stays small so opening a log is quick, later
/// ones double up to the cap, which bounds the stall of one zero-fill.
inline constexpr std::uint64_t kWalFirstExtent = 256u << 10;  // 256 KiB
inline constexpr std::uint64_t kWalMaxExtent = 1u << 20;      // 1 MiB

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
  /// Bytes past the verified prefix (torn record and/or zero-filled
  /// extent), dropped on disk.
  std::uint64_t truncated_bytes = 0;
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

/// fsyncs the directory holding `path`, so that a file just created or
/// renamed there keeps its directory entry across a power cut. False +
/// *error on failure.
bool SyncParentDirectory(const std::string& path, std::string* error);

/// Append handle. Not thread-safe: only the engine's batch path appends.
class Wal {
 public:
  /// Opens `path` for appending and zero-fills the first extent past its
  /// end. A missing or empty file gets the header record written and
  /// synced (and a newly created one its directory entry fsynced); a
  /// non-empty file is assumed to have been through RecoverWal already,
  /// so its size is the verified end (Open does not rescan). Returns
  /// null + *error on I/O failure.
  static std::unique_ptr<Wal> Open(const std::string& path,
                                   std::uint64_t config_digest,
                                   std::string* error);

  /// Trims the file to its logical end (bytes()).
  ~Wal();

  /// Writes one batch record at the logical end and fdatasyncs it — the
  /// group commit. False + *error (wire.h WriteStatus taxonomy names) on
  /// any write or sync failure; the caller must treat that as fatal
  /// (responses for the batch must not be released without durability).
  bool AppendBatch(std::span<const sim::ScenarioEvent> events,
                   std::string* error);

  /// Logical end offset — just past the last record, the boundary a
  /// snapshot taken now binds to. The file itself may be longer (the
  /// unused part of the current zero-filled extent).
  std::uint64_t bytes() const { return bytes_; }
  std::int64_t appended_batches() const { return appended_batches_; }
  const std::string& path() const { return path_; }

 private:
  Wal(UniqueFd fd, std::string path, std::uint64_t bytes)
      : fd_(std::move(fd)),
        path_(std::move(path)),
        bytes_(bytes),
        allocated_(bytes) {}

  bool AppendRecord(std::string_view payload, std::string* error);
  /// Zero-fills one more extent past allocated_, and more until `need`
  /// bytes fit after the logical end, then fsyncs the new size.
  bool Extend(std::uint64_t need, std::string* error);

  UniqueFd fd_;
  std::string path_;
  std::uint64_t bytes_ = 0;      ///< logical end
  std::uint64_t allocated_ = 0;  ///< file size: bytes_ plus the zero tail
  std::uint64_t next_extent_ = kWalFirstExtent;
  std::int64_t appended_batches_ = 0;
};

}  // namespace drtp::svc
