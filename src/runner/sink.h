// Result sinks for the sweep engine.
//
// Each completed cell is pushed to every registered sink as the pool
// finishes it — i.e. in a nondeterministic order under --jobs > 1. Sinks
// therefore lock internally and, where ordered output matters (TableSink),
// buffer and sort by cell index before rendering. JSONL lines carry the
// full cell coordinates plus a schema version, so a results file is
// self-describing regardless of line order.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "sim/metrics.h"
#include "sim/traffic.h"

namespace drtp::runner {

class CheckpointJournal;  // runner/checkpoint.h

/// JSONL schema tag; bump when the line layout changes incompatibly.
inline constexpr char kJsonlSchema[] = "drtp.sweep/1";
/// Schema tag for single-run JSON output (drtpsim run --format=json).
inline constexpr char kRunJsonSchema[] = "drtp.run/1";

/// One point of the sweep grid.
struct Cell {
  std::size_t index = 0;  ///< Position in SweepSpec expansion order.
  std::uint64_t base_seed = 1;
  double degree = 3.0;
  sim::TrafficPattern pattern = sim::TrafficPattern::kUniform;
  double lambda = 0.5;
  std::string scheme;
  /// splitmix64(base_seed, index); seeds per-cell randomness.
  std::uint64_t cell_seed = 0;
  /// Topology model the cell's graph came from ("waxman" or "hier").
  /// JSONL lines carry it only when != "waxman" so historical sweep
  /// outputs stay byte-identical.
  std::string topo_model = "waxman";
};

struct CellResult {
  Cell cell;
  sim::RunMetrics metrics;
  /// Wall-clock spent replaying this cell, seconds.
  double wall_seconds = 0.0;
  /// Per-cell obs counter deltas ((name, count), sorted, nonzero only)
  /// of the counters on kResultObsTags, captured around the replay.
  /// Deterministic — a cell runs single-threaded, so the thread-shard
  /// delta is exactly the cell's own event counts.
  std::vector<std::pair<std::string, std::int64_t>> obs_counters;
  /// fault::Auditor results when the sweep ran with audit enabled:
  /// full audits performed, invariant violations observed, and the
  /// cell's drtp.audit/1 JSONL lines (empty when the cell is clean).
  std::int64_t audit_checks = 0;
  std::int64_t audit_violations = 0;
  std::string audit_jsonl;
};

/// The obs counters a result line may carry under "obs", sorted by name;
/// docs/RUNNER.md lists them too. A line holds those its cell bumped.
/// The list is fixed so that a counter added anywhere else leaves every
/// result line's bytes unchanged: a tag joins the lines only by being
/// added here.
inline constexpr std::string_view kResultObsTags[] = {
    "drtp.failure_sweep.contended",
    "drtp.failure_sweep.failed_sets",
    "drtp.lsdb.publish_full",
    "drtp.lsdb.publish_incremental",
    "drtp.sim.admits",
    "drtp.sim.backup_breaks",
    "drtp.sim.backups_reestablished",
    "drtp.sim.blocks",
    "drtp.sim.degraded",
    "drtp.sim.drops",
    "drtp.sim.failovers",
    "drtp.sim.link_fails",
    "drtp.sim.link_repairs",
    "drtp.sim.node_fails",
    "drtp.sim.node_repairs",
    "drtp.sim.releases",
    "drtp.sim.reprotect_retries",
    "drtp.sim.reprotects",
    "drtp.sim.requests",
    "drtp.sim.srlg_fails",
    "drtp.sim.srlg_repairs",
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  /// Called once per completed cell, possibly from several threads.
  virtual void Consume(const CellResult& result) = 0;
  /// Called once after the last Consume of a sweep.
  virtual void Finish() {}
};

/// Serialises `metrics` as the members of an (already open) JSON object.
void WriteRunMetrics(JsonWriter& w, const sim::RunMetrics& metrics);

/// Renders one schema-versioned JSONL line for a completed cell (no
/// trailing newline).
std::string CellResultToJson(const CellResult& result);

/// Appends one JSON object per completed cell to a stream, newline
/// terminated, under a mutex so concurrent cells never interleave.
class JsonlSink : public ResultSink {
 public:
  /// Writes to a caller-owned stream (kept alive by the caller).
  explicit JsonlSink(std::ostream& os);
  /// Opens `path` for appending; throws CheckError when unwritable.
  explicit JsonlSink(const std::string& path);
  /// Opens `path`, truncating unless `append`. Resume paths open with
  /// append=true after RecoverCheckpoint has trimmed the file.
  JsonlSink(const std::string& path, bool append);

  /// Journals every subsequent line: immediately after a line's
  /// write+flush — under the same mutex, so journal entry i always
  /// describes sink line i — appends a checkpoint entry whose digest
  /// covers the line's exact bytes including the newline. The journal is
  /// not owned and must outlive the sink.
  void AttachJournal(CheckpointJournal* journal);

  /// Both throw CheckError when the stream lost output (full disk,
  /// closed pipe); a failed line is never journaled.
  void Consume(const CellResult& result) override;
  void Finish() override;

  std::int64_t lines_written() const { return lines_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_;
  CheckpointJournal* journal_ = nullptr;
  std::mutex mu_;
  std::int64_t lines_ = 0;
};

/// Buffers every result and renders one common/table.h row per cell in
/// cell-index order — the sweep counterpart of the bespoke figure tables.
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& os);

  void Consume(const CellResult& result) override;
  /// Sorts by cell index and renders the table.
  void Finish() override;

 private:
  std::ostream& os_;
  std::mutex mu_;
  std::vector<CellResult> results_;
};

/// Writes "done/total, cells/s, ETA, admits/s, blocks, failovers" lines
/// to stderr as cells complete; the lifecycle numbers are live global
/// obs-registry readouts (drtp.sim.*), not per-cell fields. Instantiate
/// just before Run() — the clock starts at construction.
class ProgressReporter : public ResultSink {
 public:
  explicit ProgressReporter(std::size_t total_cells);

  void Consume(const CellResult& result) override;
  void Finish() override;

 private:
  std::size_t total_;
  std::size_t done_ = 0;  // under mu_
  double start_seconds_;  // monotonic
  std::mutex mu_;
  /// Registry totals at construction, so a second sweep in the same
  /// process reports its own events only.
  obs::Counter admits_ = obs::GetCounter("drtp.sim.admits");
  obs::Counter blocks_ = obs::GetCounter("drtp.sim.blocks");
  obs::Counter failovers_ = obs::GetCounter("drtp.sim.failovers");
  std::int64_t admits0_ = 0;
  std::int64_t blocks0_ = 0;
  std::int64_t failovers0_ = 0;
};

}  // namespace drtp::runner
