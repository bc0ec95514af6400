// Structured trace pipeline: one flat TraceEvent record per connection /
// link lifecycle event, written to pluggable sinks.
//
// The paper's toolchain simulated with ns, whose trace files are the
// primary debugging artifact; this is the equivalent for our replays.
// sim::RunScenario builds one TraceEvent per replay event (stamped with
// the scheme label and, for sweeps, ExperimentConfig::trace_cell) and
// writes it to an ExperimentConfig::trace sink. Every exporter is a
// formatter over that one record type:
//   - TextTraceSink    — ns-style, one human-readable line per event.
//   - JsonlTraceSink   — schema drtp.trace/1, one JSON object per line.
//     Deterministic: a fixed-seed single-threaded replay produces
//     byte-identical files; a sweep's lines are deterministic per cell
//     (interleaving across cells follows completion order).
//   - ChromeTraceSink  — Chrome trace-event JSON (load in chrome://tracing
//     or Perfetto): one "X" span per connection lifetime, instant events
//     for blocks/failures/failovers.
// Every sink locks per record, so concurrent sweep cells never corrupt a
// line, and Finish() throws CheckError when the stream lost output.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.h"

namespace drtp::obs {

/// JSONL schema tag for JsonlTraceSink lines.
inline constexpr char kTraceSchema[] = "drtp.trace/1";

enum class TraceEventKind {
  kRequest,      ///< a DR-connection request arrived
  kAdmit,        ///< request admitted (primary established)
  kBlock,        ///< request blocked (no feasible primary)
  kRelease,      ///< connection released normally
  kLinkFail,     ///< a link went down (aggregate impact counts attached)
  kLinkRepair,   ///< a link came back up
  kFailover,     ///< one connection's backup was promoted to primary
  kDrop,         ///< one connection was lost (no activatable backup)
  kBackupBreak,  ///< one connection's backup was broken and released
  kReestablish,  ///< step-4 reconfiguration registered a fresh backup
  kNodeFail,     ///< a node failed (all incident links down atomically)
  kNodeRepair,   ///< a failed node came back
  kSrlgFail,     ///< a shared-risk link group failed together
  kSrlgRepair,   ///< a failed SRLG came back
  kDegrade,      ///< step 4 found no backup; connection runs unprotected
};

/// Stable lowercase token used in drtp.trace/1 ("admit", "link_fail", ...).
std::string_view TraceEventKindName(TraceEventKind kind);

/// One lifecycle event. Fields default to "absent" (-1 / empty) and are
/// omitted from serialized records; spans point into caller storage and
/// are only valid during the Write() call.
struct TraceEvent {
  Time t = 0.0;
  TraceEventKind kind = TraceEventKind::kRequest;
  /// Sweep-cell index the event belongs to; -1 for single runs.
  std::int64_t cell = -1;
  /// Routing scheme label ("D-LSR", ...); empty when unknown.
  std::string_view scheme;
  ConnId conn = kInvalidConn;
  LinkId link = kInvalidLink;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bandwidth bw = -1;
  /// Node sequences of the routes involved (admit, failover, reestablish).
  std::span<const NodeId> primary;
  std::span<const NodeId> backup;
  /// Post-event APLV maxima on the backup route's links: the per-link
  /// spare-pool pressure this admission/re-registration left behind.
  std::span<const std::pair<LinkId, std::int32_t>> aplv;
  /// kLinkFail / kNodeFail / kSrlgFail aggregate impact (absent: -1).
  int recovered = -1;
  int dropped = -1;
  int broken = -1;
  /// kNodeFail / kNodeRepair subject (absent: kInvalidNode).
  NodeId node = kInvalidNode;
  /// kSrlgFail / kSrlgRepair subject (absent: kInvalidSrlg).
  SrlgId srlg = kInvalidSrlg;
  /// kDegrade: remaining re-protection retries (absent: -1).
  int retries_left = -1;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// May be called from several threads (sweep cells); implementations
  /// serialize internally.
  virtual void Write(const TraceEvent& event) = 0;
  /// Called once after the last event: flushes (after footers and closing
  /// spans) and throws CheckError if the stream lost any output.
  virtual void Finish() {}
};

/// Renders one line per event (default stream formatting of the time):
///   0.3127 + conn 12 primary 3-7-22 backup 3-9-14-22
///   0.4411 - conn 9
///   0.5 x conn 17 (4 -> 31)
///   9.1 ! link 45 recovered 3 dropped 1 broken 2
///   9.1 > conn 12 promoted 3-9-14-22
///   9.1 # conn 7 dropped
///   9.1 b conn 4 backup broken
///   9.1 = conn 12 backup 3-5-22
///   9.5 ~ link 45 repaired
///   9.1 N node 6 recovered 2 dropped 1 broken 0
///   9.5 n node 6 repaired
///   9.1 S srlg 2 recovered 1 dropped 0 broken 3
///   9.5 s srlg 2 repaired
///   9.1 d conn 12 degraded retries-left 6
/// Requests are not rendered (each is immediately followed by its admit
/// or block line); the cell and scheme stamps are not rendered either.
class TextTraceSink : public TraceSink {
 public:
  explicit TextTraceSink(std::ostream& os);
  explicit TextTraceSink(const std::string& path);

  void Write(const TraceEvent& event) override;
  void Finish() override;

  std::int64_t lines_written() const { return lines_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_;
  std::mutex mu_;
  std::int64_t lines_ = 0;
};

/// drtp.trace/1: one schema-versioned JSON object per line.
class JsonlTraceSink : public TraceSink {
 public:
  /// Writes to a caller-owned stream (kept alive by the caller).
  explicit JsonlTraceSink(std::ostream& os);
  /// Truncates and writes `path`; throws CheckError when unwritable.
  explicit JsonlTraceSink(const std::string& path);

  void Write(const TraceEvent& event) override;
  void Finish() override;

  std::int64_t lines_written() const { return lines_; }

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_;
  std::mutex mu_;
  std::int64_t lines_ = 0;
};

/// Chrome trace-event JSON ({"traceEvents":[...]}): each connection's
/// admit→release/drop lifetime becomes a complete ("X") span on the track
/// (pid = cell + 1, tid = conn); blocks, failures, repairs, failovers and
/// backup events render as instant events. Load the file in
/// chrome://tracing or https://ui.perfetto.dev.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  explicit ChromeTraceSink(const std::string& path);

  void Write(const TraceEvent& event) override;
  /// Closes still-open connection spans at the last seen time and writes
  /// the JSON footer. Must be called exactly once.
  void Finish() override;

  std::int64_t events_written() const { return events_; }

 private:
  struct OpenSpan {
    Time start = 0.0;
    std::string scheme;
    int hops = -1;
  };

  void Emit(const std::string& json);  // one event object, comma-managed

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* os_;
  std::mutex mu_;
  bool first_ = true;
  bool finished_ = false;
  std::int64_t events_ = 0;
  Time last_time_ = 0.0;
  /// (cell, conn) -> open lifetime span.
  std::map<std::pair<std::int64_t, ConnId>, OpenSpan> open_;
};

}  // namespace drtp::obs
