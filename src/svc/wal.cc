#include "svc/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "common/json_value.h"
#include "common/log.h"
#include "svc/wire.h"

namespace drtp::svc {
namespace {

/// Wire tag for each daemon-effective event kind.
const char* EventTag(sim::ScenarioEvent::Type type) {
  switch (type) {
    case sim::ScenarioEvent::Type::kRequest:
      return "admit";
    case sim::ScenarioEvent::Type::kRelease:
      return "release";
    case sim::ScenarioEvent::Type::kLinkFail:
      return "fail";
    case sim::ScenarioEvent::Type::kLinkRepair:
      return "repair";
    default:
      return nullptr;
  }
}

std::int64_t IntegralTime(Time t) {
  const auto n = static_cast<std::int64_t>(std::llround(t));
  DRTP_CHECK_MSG(static_cast<Time>(n) == t,
                 "wal event time " << t << " is not integral");
  return n;
}

void PutU32Be(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>(v & 0xFF));
}

void PutU64Be(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::uint64_t GetU64Be(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::string RenderHeaderPayload(std::uint64_t config_digest) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kWalSchema);
  w.Key("config").String(DigestHex(config_digest));
  w.EndObject();
  return w.str();
}

/// "<what>: <WriteStatus name>: <strerror>" for a failed write or sync.
std::string IoError(const char* what, int err) {
  return std::string(what) + ": " + WriteStatusName(ClassifyWriteErrno(err)) +
         ": " + std::strerror(err);
}

/// fsync, or fdatasync when only file data changed; retries EINTR.
int SyncFd(int fd, bool data_only) {
  int rc;
  do {
    rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

/// Every iovec of an extent fill points at this one page.
alignas(4096) constexpr char kZeroPage[4096] = {};

/// One decoded record: payload plus the offset just past it.
struct DecodedRecord {
  std::string_view payload;
  std::uint64_t end = 0;
};

/// Decodes the record at `offset`, verifying length plausibility and the
/// trailing digest. Returns false on a torn or corrupt record — the
/// caller truncates there.
bool TryDecodeRecord(std::string_view data, std::uint64_t offset,
                     DecodedRecord* out) {
  if (data.size() - offset < 4) return false;
  const auto b = [&](std::uint64_t i) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned char>(data[offset + i]));
  };
  const std::uint64_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (n > kMaxWalRecordBytes) return false;  // torn length field
  if (data.size() - offset < 4 + n + 8) return false;
  const std::string_view payload = data.substr(offset + 4, n);
  const std::uint64_t want = GetU64Be(data.data() + offset + 4 + n);
  if (Fnv1a(payload) != want) return false;
  out->payload = payload;
  out->end = offset + 4 + n + 8;
  return true;
}

}  // namespace

std::string RenderWalBatchPayload(
    std::span<const sim::ScenarioEvent> events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kWalSchema);
  w.Key("ev").BeginArray();
  for (const sim::ScenarioEvent& e : events) {
    const char* tag = EventTag(e.type);
    DRTP_CHECK_MSG(tag != nullptr, "event kind not loggable to the wal");
    w.BeginObject();
    w.Key("e").String(tag);
    w.Key("t").Int(IntegralTime(e.time));
    switch (e.type) {
      case sim::ScenarioEvent::Type::kRequest:
        w.Key("conn").Int(e.conn);
        w.Key("src").Int(e.src);
        w.Key("dst").Int(e.dst);
        w.Key("bw").Int(e.bw);
        break;
      case sim::ScenarioEvent::Type::kRelease:
        w.Key("conn").Int(e.conn);
        break;
      default:  // kLinkFail / kLinkRepair
        w.Key("link").Int(e.link);
        break;
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::vector<sim::ScenarioEvent> ParseWalBatchPayload(
    std::string_view payload) {
  const JsonValue root = ParseJson(payload);
  if (!root.is_object()) throw ParseError("wal record is not an object");
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->AsString() != kWalSchema) {
    throw ParseError("wal record missing schema " + std::string(kWalSchema));
  }
  const JsonValue* ev = root.Find("ev");
  if (ev == nullptr || !ev->is_array()) {
    throw ParseError("wal record missing 'ev' array");
  }
  std::vector<sim::ScenarioEvent> out;
  out.reserve(ev->AsArray().size());
  for (const JsonValue& item : ev->AsArray()) {
    if (!item.is_object()) throw ParseError("wal event is not an object");
    const JsonValue* tag = item.Find("e");
    const JsonValue* t = item.Find("t");
    if (tag == nullptr || t == nullptr) {
      throw ParseError("wal event missing 'e'/'t'");
    }
    sim::ScenarioEvent e;
    e.time = static_cast<Time>(t->AsInt64());
    const std::string& kind = tag->AsString();
    const auto field = [&](const char* key) {
      const JsonValue* v = item.Find(key);
      if (v == nullptr) {
        throw ParseError("wal event missing '" + std::string(key) + "'");
      }
      return v->AsInt64();
    };
    if (kind == "admit") {
      e.type = sim::ScenarioEvent::Type::kRequest;
      e.conn = field("conn");
      e.src = static_cast<NodeId>(field("src"));
      e.dst = static_cast<NodeId>(field("dst"));
      e.bw = field("bw");
    } else if (kind == "release") {
      e.type = sim::ScenarioEvent::Type::kRelease;
      e.conn = field("conn");
    } else if (kind == "fail") {
      e.type = sim::ScenarioEvent::Type::kLinkFail;
      e.link = static_cast<LinkId>(field("link"));
    } else if (kind == "repair") {
      e.type = sim::ScenarioEvent::Type::kLinkRepair;
      e.link = static_cast<LinkId>(field("link"));
    } else {
      throw ParseError("wal event kind '" + kind + "' unknown");
    }
    out.push_back(e);
  }
  return out;
}

std::string EncodeWalRecord(std::string_view payload) {
  DRTP_CHECK(payload.size() <= kMaxWalRecordBytes);
  std::string out;
  out.reserve(payload.size() + 12);
  PutU32Be(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  PutU64Be(out, Fnv1a(payload));
  return out;
}

bool SyncParentDirectory(const std::string& path, std::string* error) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  UniqueFd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (!fd.valid()) {
    *error = "open directory '" + dir + "': " + std::strerror(errno);
    return false;
  }
  if (SyncFd(fd.get(), /*data_only=*/false) != 0) {
    *error = "fsync directory '" + dir + "': " + std::strerror(errno);
    return false;
  }
  return true;
}

WalRecovery RecoverWal(const std::string& path,
                       std::uint64_t config_digest) {
  WalRecovery out;
  std::string data;
  {
    UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (!fd.valid()) return out;  // no file: empty log, nothing to truncate
    out.existed = true;
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0) {
      throw ParseError("stat '" + path + "' failed: " + std::strerror(errno));
    }
    data.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < data.size()) {
      const ssize_t n = ::pread(fd.get(), data.data() + got, data.size() - got,
                                static_cast<off_t>(got));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        throw ParseError("reading '" + path +
                         "' failed: " + std::strerror(errno));
      }
      if (n == 0) break;  // shrank under us: scan what was there
      got += static_cast<std::size_t>(n);
    }
    data.resize(got);
  }
  std::uint64_t offset = 0;
  DecodedRecord rec;
  if (TryDecodeRecord(data, offset, &rec)) {
    // Complete header: it must be ours. A different config digest means
    // this log belongs to another daemon — refusing beats silently
    // clobbering its history.
    const JsonValue head = ParseJson(rec.payload);
    const JsonValue* schema = head.Find("schema");
    const JsonValue* config = head.Find("config");
    if (schema == nullptr || schema->AsString() != kWalSchema ||
        config == nullptr) {
      throw ParseError("'" + path + "' is not a " + kWalSchema + " log");
    }
    if (ParseDigestHex(config->AsString()) != config_digest) {
      throw ParseError("wal '" + path +
                       "' was written under a different daemon config "
                       "(scheme/seed/backups/spare-mode/topology)");
    }
    offset = rec.end;
    out.header_end = rec.end;
    while (TryDecodeRecord(data, offset, &rec)) {
      out.batches.push_back(WalBatch{
          .end_offset = rec.end,
          .events = ParseWalBatchPayload(rec.payload)});
      offset = rec.end;
    }
  }
  // Everything past `offset` is a torn or corrupt record and/or the zero
  // tail of an extent: drop it on disk so the reopened log appends at a
  // verified boundary.
  out.valid_bytes = offset;
  out.truncated_bytes = data.size() - offset;
  if (out.truncated_bytes > 0) {
    if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
      throw ParseError("truncating '" + path +
                       "' failed: " + std::strerror(errno));
    }
  }
  return out;
}

std::unique_ptr<Wal> Wal::Open(const std::string& path,
                               std::uint64_t config_digest,
                               std::string* error) {
  bool created = true;
  UniqueFd fd(
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644));
  if (!fd.valid() && errno == EEXIST) {
    created = false;
    fd = UniqueFd(::open(path.c_str(), O_RDWR | O_CLOEXEC));
  }
  if (!fd.valid()) {
    *error = "open '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    *error = "stat '" + path + "': " + std::strerror(errno);
    return nullptr;
  }
  const auto end = static_cast<std::uint64_t>(st.st_size);
  std::unique_ptr<Wal> wal(new Wal(std::move(fd), path, end));
  if (!wal->Extend(0, error)) return nullptr;
  if (end == 0) {
    // Fresh log: the header record binds the config before any batch.
    if (!wal->AppendRecord(RenderHeaderPayload(config_digest), error)) {
      return nullptr;
    }
  }
  if (created && !SyncParentDirectory(path, error)) return nullptr;
  return wal;
}

Wal::~Wal() {
  // Clean close: drop the unused zero tail, so a drained log holds
  // exactly its records. Not synced — if the old size survives a crash
  // instead, RecoverWal drops the zero tail itself.
  if (allocated_ > bytes_ &&
      ::ftruncate(fd_.get(), static_cast<off_t>(bytes_)) != 0) {
    DRTP_LOG_WARN << "wal trim of '" << path_
                  << "' failed: " << std::strerror(errno);
  }
}

bool Wal::Extend(std::uint64_t need, std::string* error) {
  std::uint64_t target = allocated_;
  do {
    target += next_extent_;
    next_extent_ = std::min(2 * next_extent_, kWalMaxExtent);
  } while (target - bytes_ < need);
  // Real zeros, not fallocate: a preallocated-but-unwritten extent would
  // still need a metadata commit the first time a record lands in it.
  constexpr int kIovecs = 64;
  iovec iov[kIovecs];
  for (std::uint64_t at = allocated_; at < target;) {
    int count = 0;
    for (std::uint64_t queued = 0; count < kIovecs && at + queued < target;
         ++count) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof kZeroPage, target - at - queued));
      iov[count].iov_base = const_cast<char*>(kZeroPage);
      iov[count].iov_len = len;
      queued += len;
    }
    const ssize_t n =
        ::pwritev(fd_.get(), iov, count, static_cast<off_t>(at));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n < 0 ? IoError("wal extend", errno)
                     : "wal extend: io_error: pwritev wrote nothing";
      return false;
    }
    at += static_cast<std::uint64_t>(n);
  }
  // One fsync makes the new size and the zeroed blocks durable, so the
  // per-batch commits that fill them only need fdatasync.
  if (SyncFd(fd_.get(), /*data_only=*/false) != 0) {
    *error = IoError("wal extend fsync", errno);
    return false;
  }
  allocated_ = target;
  return true;
}

bool Wal::AppendRecord(std::string_view payload, std::string* error) {
  const std::string record = EncodeWalRecord(payload);
  if (allocated_ - bytes_ < record.size() &&
      !Extend(record.size(), error)) {
    return false;
  }
  for (std::size_t done = 0; done < record.size();) {
    const ssize_t n = ::pwrite(fd_.get(), record.data() + done,
                               record.size() - done,
                               static_cast<off_t>(bytes_ + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n < 0 ? IoError("wal append", errno)
                     : "wal append: io_error: pwrite wrote nothing";
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  // The group commit: one fdatasync per engine batch, before any of the
  // batch's responses are released. The record overwrites zeros inside
  // the synced extent, so the size is unchanged and only data flushes.
  if (SyncFd(fd_.get(), /*data_only=*/true) != 0) {
    *error = IoError("wal fdatasync", errno);
    return false;
  }
  bytes_ += record.size();
  return true;
}

bool Wal::AppendBatch(std::span<const sim::ScenarioEvent> events,
                      std::string* error) {
  if (!AppendRecord(RenderWalBatchPayload(events), error)) return false;
  ++appended_batches_;
  return true;
}

}  // namespace drtp::svc
