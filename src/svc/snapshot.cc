#include "svc/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "common/json_value.h"
#include "common/socket.h"
#include "svc/wal.h"
#include "svc/wire.h"

namespace drtp::svc {
namespace {

void WriteLinkArray(JsonWriter& w, std::span<const LinkId> links) {
  w.BeginArray();
  for (const LinkId l : links) w.Int(l);
  w.EndArray();
}

std::vector<LinkId> ParseLinkArray(const JsonValue& v, const char* what) {
  if (!v.is_array()) {
    throw ParseError(std::string("snapshot '") + what + "' is not an array");
  }
  std::vector<LinkId> out;
  out.reserve(v.AsArray().size());
  for (const JsonValue& item : v.AsArray()) {
    out.push_back(static_cast<LinkId>(item.AsInt64()));
  }
  return out;
}

const JsonValue& Require(const JsonValue& root, const char* key) {
  const JsonValue* v = root.Find(key);
  if (v == nullptr) {
    throw ParseError(std::string("snapshot missing '") + key + "'");
  }
  return *v;
}

}  // namespace

std::string RenderSnapshotBody(const core::DrtpNetwork& net,
                               const EngineStats& stats, std::int64_t t,
                               std::uint64_t config_digest,
                               std::uint64_t wal_offset,
                               std::string_view scheme_name,
                               std::string_view scheme_state) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kSnapshotSchema);
  w.Key("config").String(DigestHex(config_digest));
  w.Key("wal_offset").Uint(wal_offset);
  w.Key("t").Int(t);
  w.Key("state_digest").String(DigestHex(NetworkStateDigest(net)));
  w.Key("stats").BeginObject();
  w.Key("frames").Int(stats.frames);
  w.Key("errors").Int(stats.errors);
  w.Key("admitted").Int(stats.admitted);
  w.Key("blocked").Int(stats.blocked);
  w.Key("released").Int(stats.released);
  w.Key("link_fails").Int(stats.link_fails);
  w.Key("link_repairs").Int(stats.link_repairs);
  w.Key("batches").Int(stats.batches);
  w.Key("wal_batches").Int(stats.wal_batches);
  w.Key("snapshots").Int(stats.snapshots);
  w.EndObject();
  w.Key("scheme").String(scheme_name);
  w.Key("scheme_state").String(scheme_state);
  w.Key("down_links");
  WriteLinkArray(w, net.down_links());
  w.Key("conns").BeginArray();
  // std::map iteration: ascending by id, matching restore order.
  for (const auto& [id, conn] : net.connections()) {
    w.BeginObject();
    w.Key("id").Int(id);
    w.Key("src").Int(conn.src);
    w.Key("dst").Int(conn.dst);
    w.Key("bw").Int(conn.bw);
    w.Key("primary");
    WriteLinkArray(w, conn.primary.links());
    w.Key("backups").BeginArray();
    for (const routing::Path& b : conn.backups) WriteLinkArray(w, b.links());
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Snapshot ParseSnapshotBody(std::string_view body) {
  const JsonValue root = ParseJson(body);
  if (!root.is_object()) throw ParseError("snapshot body is not an object");
  if (Require(root, "schema").AsString() != kSnapshotSchema) {
    throw ParseError("snapshot schema is not " +
                     std::string(kSnapshotSchema));
  }
  Snapshot out;
  out.config_digest = ParseDigestHex(Require(root, "config").AsString());
  const std::int64_t wal_offset = Require(root, "wal_offset").AsInt64();
  if (wal_offset < 0) throw ParseError("snapshot wal_offset is negative");
  out.wal_offset = static_cast<std::uint64_t>(wal_offset);
  out.t = Require(root, "t").AsInt64();
  out.state_digest =
      ParseDigestHex(Require(root, "state_digest").AsString());
  const JsonValue& stats = Require(root, "stats");
  out.stats.frames = Require(stats, "frames").AsInt64();
  out.stats.errors = Require(stats, "errors").AsInt64();
  out.stats.admitted = Require(stats, "admitted").AsInt64();
  out.stats.blocked = Require(stats, "blocked").AsInt64();
  out.stats.released = Require(stats, "released").AsInt64();
  out.stats.link_fails = Require(stats, "link_fails").AsInt64();
  out.stats.link_repairs = Require(stats, "link_repairs").AsInt64();
  out.stats.batches = Require(stats, "batches").AsInt64();
  out.stats.wal_batches = Require(stats, "wal_batches").AsInt64();
  out.stats.snapshots = Require(stats, "snapshots").AsInt64();
  out.scheme = Require(root, "scheme").AsString();
  out.scheme_state = Require(root, "scheme_state").AsString();
  out.down_links = ParseLinkArray(Require(root, "down_links"), "down_links");
  const JsonValue& conns = Require(root, "conns");
  if (!conns.is_array()) throw ParseError("snapshot 'conns' is not an array");
  for (const JsonValue& c : conns.AsArray()) {
    if (!c.is_object()) throw ParseError("snapshot conn is not an object");
    SnapshotConn sc;
    sc.id = Require(c, "id").AsInt64();
    sc.src = static_cast<NodeId>(Require(c, "src").AsInt64());
    sc.dst = static_cast<NodeId>(Require(c, "dst").AsInt64());
    sc.bw = Require(c, "bw").AsInt64();
    sc.primary = ParseLinkArray(Require(c, "primary"), "primary");
    const JsonValue& backups = Require(c, "backups");
    if (!backups.is_array()) {
      throw ParseError("snapshot 'backups' is not an array");
    }
    for (const JsonValue& b : backups.AsArray()) {
      sc.backups.push_back(ParseLinkArray(b, "backup"));
    }
    out.conns.push_back(std::move(sc));
  }
  return out;
}

bool WriteSnapshotFile(const std::string& path, std::string_view body,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  UniqueFd fd(::open(tmp.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (!fd.valid()) {
    *error = "open '" + tmp + "': " + std::strerror(errno);
    return false;
  }
  std::string line(body);
  line.push_back('\n');
  std::string content = line;
  content += "digest " + DigestHex(Fnv1a(line)) + "\n";
  FrameWriter writer(fd.get());
  iovec iov;
  iov.iov_base = content.data();
  iov.iov_len = content.size();
  const WriteResult res = writer.WriteVec(&iov, 1);
  if (!res.ok()) {
    *error = "snapshot write: " + res.message();
    return false;
  }
  // fsync before rename: the rename must never publish a file whose
  // bytes are still only in the page cache.
  while (::fsync(fd.get()) != 0) {
    if (errno == EINTR) continue;
    *error = std::string("snapshot fsync: ") + std::strerror(errno);
    return false;
  }
  fd.Reset();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename '" + tmp + "' -> '" + path +
             "': " + std::strerror(errno);
    return false;
  }
  // The rename lives in the directory: sync it too, or a power cut can
  // bring back the previous snapshot (or none).
  return SyncParentDirectory(path, error);
}

Snapshot LoadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError("snapshot '" + path + "' is unreadable");
  }
  std::string body;
  std::string digest_line;
  if (!std::getline(in, body)) {
    throw ParseError("snapshot '" + path + "' is empty");
  }
  if (!std::getline(in, digest_line)) {
    throw ParseError("snapshot '" + path + "' missing digest line");
  }
  if (digest_line.rfind("digest ", 0) != 0) {
    throw ParseError("snapshot '" + path + "' digest line malformed");
  }
  const std::uint64_t want = ParseDigestHex(digest_line.substr(7));
  if (Fnv1a(body + "\n") != want) {
    throw ParseError("snapshot '" + path +
                     "' digest mismatch (torn or tampered file)");
  }
  return ParseSnapshotBody(body);
}

}  // namespace drtp::svc
