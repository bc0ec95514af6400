// Cell-level checkpointing and multi-process sharding for sweeps.
//
// A sweep writing to a JSONL sink can keep a checkpoint journal beside it
// (`<out>.ckpt`, schema `drtp.ckpt/1`): one header line binding the
// journal to a spec digest and shard assignment, then one line per
// completed cell recording the cell id, its seed, the FNV-1a digest of
// the exact result-line bytes, and the cell's audit evidence. Both files
// are written line-atomically (one write + flush per line, journal line
// strictly after its result line), so after a SIGKILL the on-disk state
// is always: N verified (line, journal-entry) pairs, then at most one
// result line without a journal entry, then at most one torn line.
//
// RecoverCheckpoint replays that contract in reverse: it walks journal
// entries and sink lines in lockstep, verifies every digest, truncates
// both files back to the longest verified prefix (dropping torn tails
// AND any un-journaled trailing line — re-running the cell reproduces it
// byte-identically), and returns the set of completed cells so the
// engine re-enqueues only the missing ones.
//
// Sharding needs no coordination: shard i of N owns exactly the cells
// with `index % N == i`, each shard writes its own sink + journal, and
// MergeShards reassembles the canonical single-process (cell-index)
// byte order, refusing mismatched specs, schemas or incomplete shards.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "runner/sink.h"
#include "runner/sweep.h"

namespace drtp::runner {

/// Journal schema tag; bump when the line layout changes incompatibly.
inline constexpr char kCheckpointSchema[] = "drtp.ckpt/1";

/// Canonical digest of every result-affecting SweepSpec field (hex).
/// Execution parameters (jobs, sinks, shard) are deliberately excluded:
/// the digest identifies *what* is computed, not how it is scheduled, so
/// shards of one grid share it and resume refuses a changed grid.
std::string SpecDigest(const SweepSpec& spec);

/// A `--shard=i/N` assignment: this process owns cells with
/// `index % num_shards == index_`.
struct ShardAssignment {
  std::size_t index = 0;
  std::size_t num_shards = 1;

  bool Owns(std::size_t cell_index) const {
    return cell_index % num_shards == index;
  }
  friend bool operator==(const ShardAssignment&,
                         const ShardAssignment&) = default;
};

/// Parses "i/N" (e.g. "2/4"). Throws drtp::ParseError with a usable
/// message on garbage, i >= N, N == 0, or an implausibly large N.
ShardAssignment ParseShard(const std::string& text);

/// Derives a shard's output path: inserts ".shard-i" before the final
/// extension ("out.jsonl" -> "out.shard-2.jsonl", "out" -> "out.shard-2").
/// Identity for the trivial 1-shard assignment.
std::string ShardedPath(const std::string& path, const ShardAssignment& shard);

/// The journal path kept beside a sink file.
std::string JournalPathFor(const std::string& sink_path);

/// Whether a sweep writing to `sink_path` keeps a journal beside it: true
/// when the path names a regular file or nothing yet. A device, FIFO or
/// socket (also through a symlink, e.g. to /dev/null) can be neither
/// truncated nor re-read, so no journal could vouch for what it received;
/// such a sweep runs unjournaled and cannot be resumed or sharded.
bool KeepsJournal(const std::string& sink_path);

/// First line of every journal.
struct CheckpointHeader {
  std::string spec_digest;
  std::size_t num_cells = 0;  ///< Full (unsharded) grid size.
  ShardAssignment shard;
};

/// One completed cell.
struct CheckpointEntry {
  std::size_t cell = 0;
  std::uint64_t cell_seed = 0;
  /// FNV-1a over the sink line's exact bytes, including the newline.
  std::uint64_t digest = 0;
  std::int64_t audit_checks = 0;
  std::int64_t audit_violations = 0;
  /// The cell's drtp.audit/1 lines (empty when clean or audit off);
  /// journaled so a resumed or merged sweep can still emit the full
  /// audit file for cells that ran in another process.
  std::string audit_jsonl;
};

/// Append-only journal writer. Lines are rendered outside any lock and
/// pushed as one write + flush, like JsonlSink lines.
class CheckpointJournal {
 public:
  /// Opens `path`; truncates unless `append`. Throws CheckError when
  /// unwritable.
  CheckpointJournal(const std::string& path, bool append);

  /// Each writes and flushes one line; throws CheckError when the
  /// stream lost it.
  void WriteHeader(const CheckpointHeader& header);
  void Append(const CheckpointEntry& entry);

 private:
  std::ofstream os_;
};

/// Renders one journal line (no trailing newline); exposed for tests.
std::string CheckpointHeaderToJson(const CheckpointHeader& header);
std::string CheckpointEntryToJson(const CheckpointEntry& entry);

/// What RecoverCheckpoint found and kept.
struct RecoveredCheckpoint {
  CheckpointHeader header;
  /// Verified entries, in journal (= sink line) order.
  std::vector<CheckpointEntry> entries;
  /// Bytes of sink file retained after truncation.
  std::uint64_t sink_bytes = 0;
  /// True when no usable journal existed (fresh start: the sink was
  /// reset too, since nothing could vouch for its contents).
  bool fresh = false;
  /// done[k] == true iff cell k has a verified entry; sized num_cells.
  std::vector<bool> done;

  bool Done(std::size_t cell_index) const {
    return cell_index < done.size() && done[cell_index];
  }
};

/// Truncate-and-verify resume: loads `journal_path`, checks its header
/// against `expected` (throws drtp::ParseError on any mismatch — a
/// different spec, grid size or shard assignment must never be silently
/// "resumed"), verifies each entry's digest against the sink lines in
/// lockstep, truncates both files to the verified prefix, and reports
/// the completed cells. A missing or headerless journal resets the sink
/// and returns fresh=true.
RecoveredCheckpoint RecoverCheckpoint(const std::string& sink_path,
                                      const CheckpointHeader& expected);

/// Outcome of MergeShards.
struct MergeReport {
  std::size_t shards = 0;
  std::size_t cells = 0;
  std::int64_t audit_checks = 0;
  std::int64_t audit_violations = 0;
};

/// Merges completed shard sinks (each with its journal beside it) into
/// `out_path` in canonical cell-index order, writing a fresh journal
/// beside the merged file so it is itself verifiable and resumable.
/// When `audit_out_path` is non-empty, the journaled per-cell audit
/// lines are concatenated there in the same order. Throws
/// drtp::ParseError when shards disagree on spec/grid/shard-count, a
/// shard is missing or incomplete, any digest fails to verify, or any
/// cell is duplicated or absent.
MergeReport MergeShards(const std::vector<std::string>& shard_sink_paths,
                        const std::string& out_path,
                        const std::string& audit_out_path);

}  // namespace drtp::runner
