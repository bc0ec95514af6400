#include "obs/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/json.h"

namespace drtp::obs {

std::string_view TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRequest:
      return "request";
    case TraceEventKind::kAdmit:
      return "admit";
    case TraceEventKind::kBlock:
      return "block";
    case TraceEventKind::kRelease:
      return "release";
    case TraceEventKind::kLinkFail:
      return "link_fail";
    case TraceEventKind::kLinkRepair:
      return "link_repair";
    case TraceEventKind::kFailover:
      return "failover";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kBackupBreak:
      return "backup_break";
    case TraceEventKind::kReestablish:
      return "reestablish";
    case TraceEventKind::kNodeFail:
      return "node_fail";
    case TraceEventKind::kNodeRepair:
      return "node_repair";
    case TraceEventKind::kSrlgFail:
      return "srlg_fail";
    case TraceEventKind::kSrlgRepair:
      return "srlg_repair";
    case TraceEventKind::kDegrade:
      return "degrade";
  }
  return "?";
}

namespace {

/// Truncates `path` for writing; throws CheckError when unwritable.
std::unique_ptr<std::ofstream> OpenTrace(const std::string& path) {
  auto os = std::make_unique<std::ofstream>(path, std::ios::trunc);
  DRTP_CHECK_MSG(os->good(), "cannot write trace to '" << path << "'");
  return os;
}

/// Flushes `os` and fails loudly if any write to it was lost (a full
/// disk, a closed pipe): a trace that silently misses lines is worse
/// than none.
void FlushOrThrow(std::ostream& os) {
  os.flush();
  DRTP_CHECK_MSG(os.good(), "cannot write trace: output stream failed");
}

void WriteNodes(std::ostream& os, std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << '-';
    os << nodes[i];
  }
}

void WriteNodeArray(JsonWriter& w, std::string_view key,
                    std::span<const NodeId> nodes) {
  if (nodes.empty()) return;
  w.Key(key).BeginArray();
  for (const NodeId n : nodes) w.Int(n);
  w.EndArray();
}

std::string EventToJson(const TraceEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kTraceSchema);
  w.Key("t").Double(e.t);
  w.Key("ev").String(TraceEventKindName(e.kind));
  if (e.cell >= 0) w.Key("cell").Int(e.cell);
  if (!e.scheme.empty()) w.Key("scheme").String(e.scheme);
  if (e.conn != kInvalidConn) w.Key("conn").Int(e.conn);
  if (e.link != kInvalidLink) w.Key("link").Int(e.link);
  if (e.src != kInvalidNode) w.Key("src").Int(e.src);
  if (e.dst != kInvalidNode) w.Key("dst").Int(e.dst);
  if (e.bw >= 0) w.Key("bw_kbps").Int(e.bw);
  WriteNodeArray(w, "primary", e.primary);
  WriteNodeArray(w, "backup", e.backup);
  if (!e.aplv.empty()) {
    w.Key("aplv").BeginArray();
    for (const auto& [link, value] : e.aplv) {
      w.BeginArray();
      w.Int(link);
      w.Int(value);
      w.EndArray();
    }
    w.EndArray();
  }
  if (e.recovered >= 0) w.Key("recovered").Int(e.recovered);
  if (e.dropped >= 0) w.Key("dropped").Int(e.dropped);
  if (e.broken >= 0) w.Key("broken").Int(e.broken);
  if (e.node != kInvalidNode) w.Key("node").Int(e.node);
  if (e.srlg != kInvalidSrlg) w.Key("srlg").Int(e.srlg);
  if (e.retries_left >= 0) w.Key("retries_left").Int(e.retries_left);
  w.EndObject();
  return w.str();
}

}  // namespace

TextTraceSink::TextTraceSink(std::ostream& os) : os_(&os) {}

TextTraceSink::TextTraceSink(const std::string& path)
    : owned_(OpenTrace(path)), os_(owned_.get()) {}

void TextTraceSink::Write(const TraceEvent& e) {
  if (e.kind == TraceEventKind::kRequest) return;
  std::lock_guard<std::mutex> lk(mu_);
  std::ostream& os = *os_;
  os << e.t;
  switch (e.kind) {
    case TraceEventKind::kRequest:  // returned above
      break;
    case TraceEventKind::kAdmit:
      os << " + conn " << e.conn << " primary ";
      WriteNodes(os, e.primary);
      if (!e.backup.empty()) {
        os << " backup ";
        WriteNodes(os, e.backup);
      }
      break;
    case TraceEventKind::kBlock:
      os << " x conn " << e.conn << " (" << e.src << " -> " << e.dst << ')';
      break;
    case TraceEventKind::kRelease:
      os << " - conn " << e.conn;
      break;
    case TraceEventKind::kLinkFail:
      os << " ! link " << e.link;
      break;
    case TraceEventKind::kLinkRepair:
      os << " ~ link " << e.link << " repaired";
      break;
    case TraceEventKind::kFailover:
      os << " > conn " << e.conn << " promoted ";
      WriteNodes(os, e.primary);
      break;
    case TraceEventKind::kDrop:
      os << " # conn " << e.conn << " dropped";
      break;
    case TraceEventKind::kBackupBreak:
      os << " b conn " << e.conn << " backup broken";
      break;
    case TraceEventKind::kReestablish:
      os << " = conn " << e.conn << " backup ";
      WriteNodes(os, e.backup);
      break;
    case TraceEventKind::kNodeFail:
      os << " N node " << e.node;
      break;
    case TraceEventKind::kNodeRepair:
      os << " n node " << e.node << " repaired";
      break;
    case TraceEventKind::kSrlgFail:
      os << " S srlg " << e.srlg;
      break;
    case TraceEventKind::kSrlgRepair:
      os << " s srlg " << e.srlg << " repaired";
      break;
    case TraceEventKind::kDegrade:
      os << " d conn " << e.conn << " degraded retries-left "
         << e.retries_left;
      break;
  }
  if (e.recovered >= 0) {
    os << " recovered " << e.recovered << " dropped " << e.dropped
       << " broken " << e.broken;
  }
  os << '\n';
  ++lines_;
}

void TextTraceSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  FlushOrThrow(*os_);
}

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(OpenTrace(path)), os_(owned_.get()) {}

void JsonlTraceSink::Write(const TraceEvent& event) {
  const std::string line = EventToJson(event);
  std::lock_guard<std::mutex> lk(mu_);
  (*os_) << line << '\n';
  ++lines_;
}

void JsonlTraceSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  FlushOrThrow(*os_);
}

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(&os) {}

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(OpenTrace(path)), os_(owned_.get()) {}

void ChromeTraceSink::Emit(const std::string& json) {
  if (first_) {
    (*os_) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    first_ = false;
  } else {
    (*os_) << ",\n";
  }
  (*os_) << json;
  ++events_;
}

namespace {

/// Sim seconds -> trace microseconds.
double Us(Time t) { return t * 1e6; }

std::string ChromeInstant(const TraceEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String(TraceEventKindName(e.kind));
  w.Key("cat").String("event");
  w.Key("ph").String("i");
  w.Key("s").String("p");  // process-scoped flash line
  w.Key("ts").Double(Us(e.t));
  w.Key("pid").Int(e.cell >= 0 ? e.cell + 1 : 0);
  w.Key("tid").Int(e.conn != kInvalidConn ? e.conn : 0);
  w.Key("args").BeginObject();
  if (!e.scheme.empty()) w.Key("scheme").String(e.scheme);
  if (e.link != kInvalidLink) w.Key("link").Int(e.link);
  if (e.src != kInvalidNode) w.Key("src").Int(e.src);
  if (e.dst != kInvalidNode) w.Key("dst").Int(e.dst);
  if (e.recovered >= 0) w.Key("recovered").Int(e.recovered);
  if (e.dropped >= 0) w.Key("dropped").Int(e.dropped);
  if (e.broken >= 0) w.Key("broken").Int(e.broken);
  if (e.node != kInvalidNode) w.Key("node").Int(e.node);
  if (e.srlg != kInvalidSrlg) w.Key("srlg").Int(e.srlg);
  if (e.retries_left >= 0) w.Key("retries_left").Int(e.retries_left);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string ChromeSpan(std::int64_t cell, ConnId conn, Time start, Time end,
                       const std::string& scheme, int hops,
                       std::string_view outcome) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("conn " + std::to_string(conn));
  w.Key("cat").String("conn");
  w.Key("ph").String("X");
  w.Key("ts").Double(Us(start));
  w.Key("dur").Double(Us(end - start));
  w.Key("pid").Int(cell >= 0 ? cell + 1 : 0);
  w.Key("tid").Int(conn);
  w.Key("args").BeginObject();
  if (!scheme.empty()) w.Key("scheme").String(scheme);
  if (hops >= 0) w.Key("primary_hops").Int(hops);
  w.Key("outcome").String(outcome);
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace

void ChromeTraceSink::Write(const TraceEvent& e) {
  std::lock_guard<std::mutex> lk(mu_);
  DRTP_CHECK_MSG(!finished_, "ChromeTraceSink written after Finish");
  if (e.t > last_time_) last_time_ = e.t;
  const auto key = std::make_pair(e.cell, e.conn);
  switch (e.kind) {
    case TraceEventKind::kAdmit: {
      OpenSpan span;
      span.start = e.t;
      span.scheme = std::string(e.scheme);
      span.hops = e.primary.empty()
                      ? -1
                      : static_cast<int>(e.primary.size()) - 1;
      open_[key] = std::move(span);
      return;
    }
    case TraceEventKind::kRelease:
    case TraceEventKind::kDrop: {
      const auto it = open_.find(key);
      if (it != open_.end()) {
        Emit(ChromeSpan(e.cell, e.conn, it->second.start, e.t,
                        it->second.scheme, it->second.hops,
                        e.kind == TraceEventKind::kDrop ? "dropped"
                                                        : "released"));
        open_.erase(it);
      }
      if (e.kind == TraceEventKind::kDrop) Emit(ChromeInstant(e));
      return;
    }
    case TraceEventKind::kRequest:
      return;  // admits/blocks carry the signal; requests double lines
    default:
      Emit(ChromeInstant(e));
      return;
  }
}

void ChromeTraceSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  if (finished_) return;
  for (const auto& [key, span] : open_) {
    Emit(ChromeSpan(key.first, key.second, span.start,
                    std::max(last_time_, span.start), span.scheme, span.hops,
                    "open"));
  }
  open_.clear();
  if (first_) (*os_) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  (*os_) << "\n]}\n";
  finished_ = true;
  FlushOrThrow(*os_);
}

}  // namespace drtp::obs
