// Tests for the drtpd service layer (src/svc): wire framing, the
// drtp.rpc/1 decoder, the batched admission engine, the pipeline's
// deterministic batch formation, the unix-socket server end to end
// (ordering, bursts, slow readers), and the replay-equivalence contract
// that pins a live daemon's final state to an offline sim::RunScenario
// replay of its request log.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/json_value.h"
#include "common/log.h"
#include "common/socket.h"
#include "net/generators.h"
#include "obs/metrics.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/scenario.h"
#include "sim/traffic.h"
#include "svc/engine.h"
#include "svc/pipeline.h"
#include "svc/rpc.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace drtp {
namespace {

using svc::DecodedRequest;
using svc::DecodeRequest;
using svc::Engine;
using svc::EngineOptions;
using svc::FrameReader;

// ---- payload builders -------------------------------------------------

std::string AdmitPayload(std::int64_t id, ConnId conn, NodeId src, NodeId dst,
                         Bandwidth bw) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("admit");
  w.Key("params").BeginObject();
  w.Key("conn").Int(conn);
  w.Key("src").Int(src);
  w.Key("dst").Int(dst);
  w.Key("bw_kbps").Int(bw);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string ReleasePayload(std::int64_t id, ConnId conn) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("release");
  w.Key("params").BeginObject();
  w.Key("conn").Int(conn);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string LinkPayload(std::int64_t id, const char* method, LinkId link) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String(method);
  w.Key("params").BeginObject();
  w.Key("link").Int(link);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string StatsPayload(std::int64_t id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("stats");
  w.EndObject();
  return w.str();
}

/// Runs one payload through the engine as a single-request batch and
/// returns the parsed response.
JsonValue Run1(Engine& engine, const std::string& payload) {
  const DecodedRequest d = DecodeRequest(payload);
  const std::vector<std::string> out = engine.ExecuteBatch({&d, 1});
  EXPECT_EQ(out.size(), 1u);
  return ParseJson(out[0]);
}

const JsonValue& Get(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.Find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return *f;
}

std::string ErrorCode(const JsonValue& resp) {
  EXPECT_FALSE(Get(resp, "ok").AsBool());
  return Get(Get(resp, "error"), "code").AsString();
}

// ---- wire framing -----------------------------------------------------

TEST(WireTest, RoundTripsByteAtATime) {
  const std::string frame =
      svc::EncodeFrame("hello") + svc::EncodeFrame("") + svc::EncodeFrame("x");
  FrameReader reader;
  std::vector<std::string> got;
  for (const char c : frame) {
    ASSERT_TRUE(reader.Feed(std::string_view(&c, 1)));
    while (auto p = reader.Next()) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "x");
  EXPECT_EQ(reader.pending_bytes(), 0u);
  EXPECT_TRUE(reader.error().empty());
}

TEST(WireTest, ManyFramesInOneFeed) {
  std::string stream;
  for (int i = 0; i < 100; ++i) {
    stream += svc::EncodeFrame("payload-" + std::to_string(i));
  }
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(stream));
  int n = 0;
  while (auto p = reader.Next()) {
    EXPECT_EQ(*p, "payload-" + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 100);
}

TEST(WireTest, TornFrameStaysPending) {
  const std::string frame = svc::EncodeFrame("truncated payload");
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(std::string_view(frame).substr(0, frame.size() - 3)));
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_GT(reader.pending_bytes(), 0u);  // the EOF torn-frame signal
  EXPECT_TRUE(reader.error().empty());
  // The rest arrives: the frame completes normally.
  ASSERT_TRUE(reader.Feed(std::string_view(frame).substr(frame.size() - 3)));
  const auto p = reader.Next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, "truncated payload");
}

TEST(WireTest, OversizedHeaderPoisonsReader) {
  // Header declaring kMaxFrameBytes + 1: rejected before buffering.
  char header[4];
  svc::EncodeFrameHeader(svc::kMaxFrameBytes, header);  // max itself is ok
  FrameReader ok_reader;
  EXPECT_TRUE(ok_reader.Feed(std::string_view(header, 4)));
  EXPECT_TRUE(ok_reader.error().empty());

  const std::uint32_t too_big =
      static_cast<std::uint32_t>(svc::kMaxFrameBytes) + 1;
  const char bad[4] = {static_cast<char>(too_big >> 24),
                       static_cast<char>(too_big >> 16),
                       static_cast<char>(too_big >> 8),
                       static_cast<char>(too_big)};
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(std::string_view(bad, 4)));
  EXPECT_FALSE(reader.Next().has_value());  // detection happens on Next()
  EXPECT_FALSE(reader.error().empty());
  EXPECT_FALSE(reader.Feed("more"));  // poisoned for good
  EXPECT_FALSE(reader.Next().has_value());
}

// ---- frame writer (failure injection) ---------------------------------

/// FrameWriter with a scripted DoWritev: each step either consumes up to
/// `accept` bytes or fails with `fail_errno`. Steps repeat the last entry
/// once exhausted.
class FakeWriter : public svc::FrameWriter {
 public:
  struct Step {
    long accept = 0;   ///< bytes to consume (0 with errno = failure)
    int fail_errno = 0;
  };

  explicit FakeWriter(std::vector<Step> steps)
      : svc::FrameWriter(-1), steps_(std::move(steps)) {}

  const std::string& written() const { return written_; }
  int calls() const { return calls_; }

 protected:
  long DoWritev(const iovec* iov, int iovcnt) override {
    const Step& step =
        steps_[std::min<std::size_t>(static_cast<std::size_t>(calls_),
                                     steps_.size() - 1)];
    ++calls_;
    if (step.fail_errno != 0) {
      errno = step.fail_errno;
      return -1;
    }
    long left = step.accept;
    long taken = 0;
    for (int i = 0; i < iovcnt && left > 0; ++i) {
      const long n = std::min<long>(left, static_cast<long>(iov[i].iov_len));
      written_.append(static_cast<const char*>(iov[i].iov_base),
                      static_cast<std::size_t>(n));
      taken += n;
      left -= n;
    }
    return taken;
  }

 private:
  std::vector<Step> steps_;
  std::string written_;
  int calls_ = 0;
};

TEST(FrameWriterTest, ShortWritesAreCompletedByteForByte) {
  // 3 bytes per call: the header/payload iovec boundary is crossed
  // mid-write and every byte must still land exactly once, in order.
  FakeWriter writer(std::vector<FakeWriter::Step>{{.accept = 3}});
  const svc::WriteResult res = writer.WriteFrame("hello, short writes");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(writer.written(), svc::EncodeFrame("hello, short writes"));
  EXPECT_GT(writer.calls(), 1);
}

TEST(FrameWriterTest, EintrIsRetriedNotReported) {
  FakeWriter writer({{.fail_errno = EINTR},
                     {.fail_errno = EINTR},
                     {.accept = 1 << 20}});
  const svc::WriteResult res = writer.WriteFrame("interrupted");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(writer.written(), svc::EncodeFrame("interrupted"));
  EXPECT_EQ(writer.calls(), 3);
}

TEST(FrameWriterTest, ErrnoTaxonomyIsExplicit) {
  struct Case {
    int err;
    svc::WriteStatus want;
    const char* name;
  };
  const Case cases[] = {
      {EPIPE, svc::WriteStatus::kPeerGone, "peer_gone"},
      {ECONNRESET, svc::WriteStatus::kPeerGone, "peer_gone"},
      {ENOSPC, svc::WriteStatus::kNoSpace, "no_space"},
      {EDQUOT, svc::WriteStatus::kNoSpace, "no_space"},
      {EIO, svc::WriteStatus::kIoError, "io_error"},
      {EBADF, svc::WriteStatus::kIoError, "io_error"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(svc::ClassifyWriteErrno(c.err), c.want) << c.err;
    FakeWriter writer(std::vector<FakeWriter::Step>{{.fail_errno = c.err}});
    const svc::WriteResult res = writer.WriteFrame("doomed");
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status, c.want);
    EXPECT_EQ(res.error_errno, c.err);
    EXPECT_NE(res.message().find(c.name), std::string::npos)
        << res.message();
  }
}

TEST(FrameWriterTest, FailureAfterPartialWriteReportsNotOk) {
  // A frame that dies halfway: the caller must see the failure (the
  // server drops the client; the WAL treats it as fatal) — a half-frame
  // reported as success would desync the peer's reader forever.
  FakeWriter writer({{.accept = 2}, {.fail_errno = EPIPE}});
  const svc::WriteResult res = writer.WriteFrame("half");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, svc::WriteStatus::kPeerGone);
}

TEST(FrameWriterTest, ZeroReturnIsIoErrorNotInfiniteLoop) {
  FakeWriter writer({{.accept = 0, .fail_errno = 0}});
  const svc::WriteResult res = writer.WriteFrame("stuck");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status, svc::WriteStatus::kIoError);
}

// ---- drtp.rpc/1 decoding ----------------------------------------------

TEST(RpcTest, MalformedJsonIsBadJson) {
  const DecodedRequest d = DecodeRequest("{not json");
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error_code, svc::kErrBadJson);
  EXPECT_EQ(d.id, -1);
}

TEST(RpcTest, WrongSchemaIsBadRequest) {
  const DecodedRequest d = DecodeRequest(
      R"({"schema":"drtp.rpc/99","id":7,"method":"stats"})");
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error_code, svc::kErrBadRequest);
  EXPECT_EQ(d.id, 7) << "id must be recovered for response correlation";
}

TEST(RpcTest, UnknownMethod) {
  const DecodedRequest d = DecodeRequest(
      R"({"schema":"drtp.rpc/1","id":3,"method":"frobnicate"})");
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error_code, svc::kErrUnknownMethod);
  EXPECT_EQ(d.id, 3);
}

TEST(RpcTest, AdmitParameterValidation) {
  // Missing params object.
  EXPECT_EQ(DecodeRequest(R"({"schema":"drtp.rpc/1","id":1,"method":"admit"})")
                .error_code,
            svc::kErrBadRequest);
  // src == dst.
  EXPECT_EQ(
      DecodeRequest(
          R"({"schema":"drtp.rpc/1","id":1,"method":"admit",)"
          R"("params":{"conn":5,"src":2,"dst":2,"bw_kbps":100}})")
          .error_code,
      svc::kErrBadRequest);
  // Non-positive bandwidth.
  EXPECT_EQ(
      DecodeRequest(
          R"({"schema":"drtp.rpc/1","id":1,"method":"admit",)"
          R"("params":{"conn":5,"src":2,"dst":3,"bw_kbps":0}})")
          .error_code,
      svc::kErrBadRequest);
}

TEST(RpcTest, GoodAdmitDecodes) {
  const DecodedRequest d = DecodeRequest(AdmitPayload(42, 7, 1, 9, Mbps(2)));
  ASSERT_TRUE(d.ok) << d.error_code << ": " << d.error_detail;
  EXPECT_EQ(d.request.id, 42);
  EXPECT_EQ(d.request.method, svc::Method::kAdmit);
  EXPECT_EQ(d.request.conn, 7);
  EXPECT_EQ(d.request.src, 1);
  EXPECT_EQ(d.request.dst, 9);
  EXPECT_EQ(d.request.bw, Mbps(2));
}

// ---- malformed-input corpus -------------------------------------------

/// Reads the checked-in corpus manifest: `<file> <expected error code>`
/// per line (tests/testdata/rpc_corpus/MANIFEST).
std::vector<std::pair<std::string, std::string>> ReadCorpusManifest() {
  const std::string dir = std::string(DRTP_TESTDATA_DIR) + "/rpc_corpus/";
  std::ifstream in(dir + "MANIFEST");
  EXPECT_TRUE(in.good()) << "missing " << dir << "MANIFEST";
  std::vector<std::pair<std::string, std::string>> out;
  std::string file, code;
  while (in >> file >> code) out.emplace_back(dir + file, code);
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(RpcCorpusTest, EveryMalformedFrameGetsItsPinnedErrorCode) {
  // Truncated, oversized, deep-nested, non-UTF-8, overflowing, duplicate
  // -keyed, control-character frames: each decodes to the exact error
  // code pinned in the manifest — stable taxonomy, never a crash (the
  // ASan/UBSan CI job runs this test under sanitizers).
  const auto corpus = ReadCorpusManifest();
  ASSERT_GE(corpus.size(), 20u);
  for (const auto& [path, want] : corpus) {
    const std::string payload = ReadFileBytes(path);
    const DecodedRequest d = DecodeRequest(payload);
    EXPECT_FALSE(d.ok) << path;
    EXPECT_EQ(d.error_code, want) << path;
    // The pre-decode id scan must also survive every corpus entry.
    (void)svc::ExtractRequestId(payload);
  }
}

TEST(RpcCorpusTest, EngineAnswersEveryMalformedFrame) {
  // End to end through the batch path: every corpus frame produces
  // exactly one well-formed ok=false response — never a dropped frame,
  // never a throw out of ExecuteBatch.
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 20, .avg_degree = 4.0, .seed = 3});
  Engine engine(topo, EngineOptions{});
  const std::uint64_t fresh = engine.StateDigest();
  for (const auto& [path, want] : ReadCorpusManifest()) {
    const DecodedRequest d = DecodeRequest(ReadFileBytes(path));
    const std::vector<std::string> out = engine.ExecuteBatch({&d, 1});
    ASSERT_EQ(out.size(), 1u) << path;
    const JsonValue resp = ParseJson(out[0]);
    EXPECT_FALSE(Get(resp, "ok").AsBool()) << path;
    EXPECT_EQ(Get(Get(resp, "error"), "code").AsString(), want) << path;
  }
  // Malformed input is state-neutral: no admission, no clock advance.
  EXPECT_EQ(engine.StateDigest(), fresh);
  EXPECT_EQ(engine.virtual_now(), 0.0);
}

// ---- overload ----------------------------------------------------------

TEST(OverloadTest, OverloadedResponseCarriesRetryHint) {
  const std::string resp = svc::RenderOverloadedResponse(42, 3);
  const JsonValue v = ParseJson(resp);
  EXPECT_EQ(Get(v, "id").AsInt64(), 42);
  EXPECT_FALSE(Get(v, "ok").AsBool());
  const JsonValue& err = Get(v, "error");
  EXPECT_EQ(Get(err, "code").AsString(), svc::kErrOverloaded);
  EXPECT_EQ(Get(err, "retry_after_ms").AsInt64(), 3);
}

TEST(OverloadTest, ExtractRequestIdScansWithoutParsing) {
  EXPECT_EQ(svc::ExtractRequestId(R"({"id":123,"method":"x"})"), 123);
  EXPECT_EQ(svc::ExtractRequestId(R"({ "id" : 7 })"), 7);
  EXPECT_EQ(svc::ExtractRequestId("no id here"), -1);
  EXPECT_EQ(svc::ExtractRequestId(R"({"id":"nan"})"), -1);
  EXPECT_EQ(svc::ExtractRequestId(""), -1);
}

TEST(OverloadTest, PipelineShedsAboveMaxInflightAndRecovers) {
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 12, .avg_degree = 3.0, .seed = 2});
  Engine engine(topo, EngineOptions{});
  int responses = 0;
  svc::PipelineOptions po;
  po.batch_max = 64;  // no batch fills, so nothing runs until drain
  po.max_inflight = 4;
  svc::Pipeline pipeline(engine, po, [&](std::span<svc::Response> batch) {
    responses += static_cast<int>(batch.size());
  });
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string payload = AdmitPayload(i, i, 0, 5, Mbps(1));
    if (pipeline.TrySubmit(1, payload).has_value()) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(pipeline.shed(), 6);
  EXPECT_EQ(pipeline.queued(), 4u);
  EXPECT_GE(pipeline.RetryAfterMs(), 1);
  EXPECT_EQ(responses, 0);
  pipeline.Drain();
  EXPECT_EQ(responses, 4) << "every accepted frame must be answered";
  EXPECT_EQ(pipeline.queued(), 0u);
}

TEST(OverloadTest, CapacityFreesAsResponsesFlow) {
  // max_inflight counts queued, not yet executed frames: a submitter far
  // past the bound that runs a batch whenever it is shed (as the server
  // does) gets every accepted frame answered, and capacity frees as each
  // batch runs.
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 12, .avg_degree = 3.0, .seed = 2});
  Engine engine(topo, EngineOptions{});
  int responses = 0;
  svc::PipelineOptions po;
  po.batch_max = 8;
  po.max_inflight = 4;
  svc::Pipeline pipeline(engine, po, [&](std::span<svc::Response> batch) {
    responses += static_cast<int>(batch.size());
  });
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string payload =
        AdmitPayload(i, i, i % 12, (i + 5) % 12, Mbps(1));
    if (pipeline.TrySubmit(1, payload).has_value()) {
      ++accepted;
    } else {
      EXPECT_EQ(pipeline.RunBatch(), 4u);
    }
  }
  pipeline.Drain();
  EXPECT_EQ(responses, accepted);
  EXPECT_EQ(pipeline.shed(), 200 - accepted);
  // Four accepted, one shed, one batch of four: forty times over.
  EXPECT_EQ(accepted, 160);
}

// ---- engine -----------------------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : topo_(net::MakeWaxman(
            net::WaxmanConfig{.nodes = 20, .avg_degree = 4.0, .seed = 3})) {}

  net::Topology topo_;
};

TEST_F(EngineTest, AdmitReleaseLifecycle) {
  Engine engine(topo_, EngineOptions{});
  const JsonValue admit = Run1(engine, AdmitPayload(1, 100, 0, 5, Mbps(1)));
  ASSERT_TRUE(Get(admit, "ok").AsBool());
  const JsonValue& result = Get(admit, "result");
  ASSERT_TRUE(Get(result, "admitted").AsBool());
  EXPECT_GT(Get(result, "primary_hops").AsInt64(), 0);
  EXPECT_TRUE(Get(result, "protected").AsBool());  // D-LSR finds a backup
  EXPECT_EQ(engine.network().ActiveCount(), 1);

  const JsonValue release = Run1(engine, ReleasePayload(2, 100));
  ASSERT_TRUE(Get(release, "ok").AsBool());
  EXPECT_TRUE(Get(Get(release, "result"), "released").AsBool());
  EXPECT_EQ(engine.network().ActiveCount(), 0);
  EXPECT_EQ(engine.stats().admitted, 1);
  EXPECT_EQ(engine.stats().released, 1);
}

TEST_F(EngineTest, DuplicateConnectionIdRejected) {
  Engine engine(topo_, EngineOptions{});
  ASSERT_TRUE(Get(Run1(engine, AdmitPayload(1, 7, 0, 5, Mbps(1))), "ok")
                  .AsBool());
  const JsonValue dup = Run1(engine, AdmitPayload(2, 7, 3, 9, Mbps(1)));
  EXPECT_EQ(ErrorCode(dup), svc::kErrConnExists);
  EXPECT_EQ(Get(dup, "id").AsInt64(), 2);
  EXPECT_EQ(engine.network().ActiveCount(), 1);
}

TEST_F(EngineTest, ReleaseUnknownConnectionIsNotFound) {
  Engine engine(topo_, EngineOptions{});
  EXPECT_EQ(ErrorCode(Run1(engine, ReleasePayload(1, 999))),
            svc::kErrNotFound);
}

TEST_F(EngineTest, NodeAndLinkRangeChecks) {
  Engine engine(topo_, EngineOptions{});
  EXPECT_EQ(ErrorCode(Run1(
                engine, AdmitPayload(1, 1, 0, topo_.num_nodes(), Mbps(1)))),
            svc::kErrOutOfRange);
  EXPECT_EQ(
      ErrorCode(Run1(engine, LinkPayload(2, "fail-link", topo_.num_links()))),
      svc::kErrOutOfRange);
}

TEST_F(EngineTest, FailAndRepairLinkReportEnactment) {
  Engine engine(topo_, EngineOptions{});
  ASSERT_TRUE(Get(Run1(engine, AdmitPayload(1, 1, 0, 5, Mbps(1))), "ok")
                  .AsBool());

  const JsonValue fail = Run1(engine, LinkPayload(2, "fail-link", 0));
  ASSERT_TRUE(Get(fail, "ok").AsBool());
  EXPECT_TRUE(Get(Get(fail, "result"), "changed").AsBool());
  // Failing an already-down link is a no-op, not an error.
  const JsonValue again = Run1(engine, LinkPayload(3, "fail-link", 0));
  ASSERT_TRUE(Get(again, "ok").AsBool());
  EXPECT_FALSE(Get(Get(again, "result"), "changed").AsBool());

  const JsonValue repair = Run1(engine, LinkPayload(4, "repair-link", 0));
  ASSERT_TRUE(Get(repair, "ok").AsBool());
  EXPECT_TRUE(Get(Get(repair, "result"), "changed").AsBool());
  EXPECT_EQ(engine.stats().link_fails, 1);
  EXPECT_EQ(engine.stats().link_repairs, 1);
}

TEST_F(EngineTest, StatsReportStateAndDigest) {
  Engine engine(topo_, EngineOptions{});
  const JsonValue before = Run1(engine, StatsPayload(1));
  const std::string digest0 = Get(Get(before, "result"), "digest").AsString();
  EXPECT_EQ(Get(Get(before, "result"), "active").AsInt64(), 0);

  ASSERT_TRUE(Get(Run1(engine, AdmitPayload(2, 1, 0, 5, Mbps(1))), "ok")
                  .AsBool());
  const JsonValue after = Run1(engine, StatsPayload(3));
  const JsonValue& r = Get(after, "result");
  EXPECT_EQ(Get(r, "active").AsInt64(), 1);
  EXPECT_EQ(Get(r, "nodes").AsInt64(), topo_.num_nodes());
  EXPECT_GT(Get(r, "prime_kbps").AsInt64(), 0);
  EXPECT_NE(Get(r, "digest").AsString(), digest0)
      << "digest must reflect table/ledger changes";
}

TEST_F(EngineTest, StatsFieldOrderIsPinned) {
  // The default stats result is part of the deterministic wire contract
  // (threads=1 vs threads=4 byte-equality, drtpload's report): its field
  // order is pinned. New fields append; nothing reorders.
  Engine engine(topo_, EngineOptions{});
  ASSERT_TRUE(Get(Run1(engine, AdmitPayload(1, 1, 0, 5, Mbps(1))), "ok")
                  .AsBool());
  const DecodedRequest d = DecodeRequest(StatsPayload(2));
  const std::vector<std::string> out = engine.ExecuteBatch({&d, 1});
  ASSERT_EQ(out.size(), 1u);
  const std::string& raw = out[0];

  const char* const kOrder[] = {
      "nodes",        "links",      "active",           "frames",
      "errors",       "admitted",   "blocked",          "released",
      "link_fails",   "link_repairs", "batches",        "prime_kbps",
      "spare_kbps",   "overbooked_links", "pbk_hits",   "pbk_trials",
      "pbk",          "digest",     "audit_checks",     "audit_violations",
      "degraded",     "batch_last", "request_log_events",
      "wal_batches",  "wal_bytes",  "snapshots",          "shed"};
  std::size_t pos = 0;
  for (const char* key : kOrder) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = raw.find(needle, pos);
    ASSERT_NE(at, std::string::npos)
        << "stats field '" << key << "' missing or out of order in " << raw;
    pos = at + needle.size();
  }
  // The default response must NOT carry the wall-clock metrics snapshot.
  EXPECT_EQ(raw.find("\"metrics\""), std::string::npos);
}

TEST_F(EngineTest, StatsMetricsOptInAttachesRegistrySnapshot) {
  Engine engine(topo_, EngineOptions{});
  const std::string payload = [] {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(svc::kRpcSchema);
    w.Key("id").Int(1);
    w.Key("method").String("stats");
    w.Key("params").BeginObject();
    w.Key("metrics").Bool(true);
    w.EndObject();
    w.EndObject();
    return w.str();
  }();
  const JsonValue resp = Run1(engine, payload);
  ASSERT_TRUE(Get(resp, "ok").AsBool());
  const JsonValue& metrics = Get(Get(resp, "result"), "metrics");
  EXPECT_EQ(Get(metrics, "schema").AsString(), "drtp.metrics/1");
  EXPECT_TRUE(Get(metrics, "counters").is_object());
  EXPECT_TRUE(Get(metrics, "gauges").is_object());
  EXPECT_TRUE(Get(metrics, "histograms").is_array());
  // The stats call's own P_bk sweep has registered its counters.
  const JsonValue& counters = Get(metrics, "counters");
  EXPECT_NE(counters.Find("drtp.failure_sweep.failed_sets"), nullptr);
  EXPECT_NE(counters.Find("drtp.failure_sweep.contended"), nullptr);
}

TEST_F(EngineTest, DegradedCountTracksBackupLoss) {
  Engine engine(topo_, EngineOptions{});
  ASSERT_TRUE(Get(Run1(engine, AdmitPayload(1, 1, 0, 5, Mbps(1))), "ok")
                  .AsBool());
  EXPECT_EQ(engine.DegradedCount(), 0);
  const JsonValue stats = Run1(engine, StatsPayload(2));
  EXPECT_EQ(Get(Get(stats, "result"), "degraded").AsInt64(), 0);
  EXPECT_EQ(Get(Get(stats, "result"), "batch_last").AsInt64(), 1);
}

TEST_F(EngineTest, BatchedAdmissionsShareOneSnapshot) {
  // A whole batch admits against the snapshot taken at batch start; the
  // responses must be ok and the table must hold every admission.
  Engine engine(topo_, EngineOptions{});
  std::vector<std::string> payloads;
  std::vector<DecodedRequest> batch;
  for (int i = 0; i < 32; ++i) {
    payloads.push_back(AdmitPayload(i, i, i % topo_.num_nodes(),
                                    (i + 7) % topo_.num_nodes(), Mbps(1)));
  }
  for (const std::string& p : payloads) batch.push_back(DecodeRequest(p));
  const std::vector<std::string> out = engine.ExecuteBatch(batch);
  ASSERT_EQ(out.size(), batch.size());
  std::int64_t admitted = 0;
  for (const std::string& resp : out) {
    const JsonValue v = ParseJson(resp);
    ASSERT_TRUE(Get(v, "ok").AsBool());
    if (Get(Get(v, "result"), "admitted").AsBool()) ++admitted;
  }
  EXPECT_EQ(admitted, engine.network().ActiveCount());
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(engine.stats().batches, 1);
}

TEST_F(EngineTest, AuditIntervalRunsAndStaysClean) {
  std::ostringstream audit;
  EngineOptions eo;
  eo.audit_interval = 2;
  eo.audit_out = &audit;
  Engine engine(topo_, eo);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        Get(Run1(engine, AdmitPayload(i, i, 0, 5 + i % 5, Mbps(1))), "ok")
            .AsBool());
  }
  EXPECT_EQ(engine.FinalAudit(), 0) << audit.str();
  // 8 single-request batches at interval 2 -> 4 batch audits + drain.
  EXPECT_GE(engine.audit_checks(), 5);
  EXPECT_EQ(engine.audit_violations(), 0);
}

// ---- pipeline determinism ---------------------------------------------

/// A mixed sequence: admits, releases, errors, failures, stats — enough
/// to cross several batch boundaries at batch_max = 8 — ending in a
/// stats request that carries the drained state digest and gauges.
std::vector<std::string> MixedPayloads() {
  std::vector<std::string> payloads;
  for (int i = 0; i < 60; ++i) {
    switch (i % 6) {
      case 0:
      case 1:
      case 2:
        payloads.push_back(AdmitPayload(i, i, (3 * i) % 30, (3 * i + 11) % 30,
                                        Mbps(1)));
        break;
      case 3:
        payloads.push_back(ReleasePayload(i, i - 3));
        break;
      case 4:
        payloads.push_back(i % 12 == 4 ? LinkPayload(i, "fail-link", i % 40)
                                       : LinkPayload(i, "repair-link", i % 40));
        break;
      default:
        payloads.push_back(i % 12 == 5 ? StatsPayload(i)
                                       : "{\"broken\":");  // bad_json
        break;
    }
  }
  payloads.push_back(StatsPayload(60));
  return payloads;
}

TEST(PipelineTest, SubmitThenDrainMatchesDirectExecuteBatch) {
  // Submitting without RunBatch forms batches from the submission
  // sequence alone: full batches run inside Submit, the rest at Drain.
  // The responses, final stats (digest, batch count, engine gauges)
  // included, are byte-identical to calling Engine::ExecuteBatch directly
  // on batch_max chunks of the same sequence.
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 30, .avg_degree = 4.0, .seed = 5});
  const std::vector<std::string> payloads = MixedPayloads();
  constexpr std::size_t kBatch = 8;

  Engine piped(topo, EngineOptions{});
  std::vector<std::string> via_pipeline;
  std::vector<std::size_t> batch_sizes;
  svc::PipelineOptions po;
  po.batch_max = static_cast<int>(kBatch);
  svc::Pipeline pipeline(piped, po, [&](std::span<svc::Response> batch) {
    batch_sizes.push_back(batch.size());
    for (svc::Response& r : batch) {
      EXPECT_EQ(r.seq, via_pipeline.size());
      via_pipeline.push_back(std::move(r.payload));
    }
  });
  for (const std::string& p : payloads) pipeline.Submit(1, p);
  pipeline.Drain();
  EXPECT_EQ(pipeline.responded(), payloads.size());

  Engine direct(topo, EngineOptions{});
  std::vector<std::string> via_engine;
  for (std::size_t at = 0; at < payloads.size(); at += kBatch) {
    std::vector<DecodedRequest> chunk;
    for (std::size_t i = at; i < std::min(at + kBatch, payloads.size()); ++i) {
      chunk.push_back(DecodeRequest(payloads[i]));
    }
    for (std::string& r : direct.ExecuteBatch(chunk)) {
      via_engine.push_back(std::move(r));
    }
  }

  ASSERT_EQ(via_pipeline.size(), via_engine.size());
  for (std::size_t i = 0; i < via_engine.size(); ++i) {
    EXPECT_EQ(via_pipeline[i], via_engine[i]) << "response " << i;
  }
  const JsonValue last = ParseJson(via_pipeline.back());
  const JsonValue& final_stats = Get(last, "result");
  EXPECT_FALSE(Get(final_stats, "digest").AsString().empty());
  EXPECT_EQ(Get(final_stats, "batches").AsInt64(), 7);
  EXPECT_EQ(batch_sizes,
            (std::vector<std::size_t>{8, 8, 8, 8, 8, 8, 8, 5}));
  EXPECT_EQ(piped.StateDigest(), direct.StateDigest());

  // Post-drain occupancy gauges read the same on every run.
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  std::map<std::string, double> gauges;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("drtp.svc.pipeline.", 0) == 0) gauges[name] = value;
  }
  EXPECT_EQ(gauges, (std::map<std::string, double>{
                        {"drtp.svc.pipeline.batch_last", 5.0},
                        {"drtp.svc.pipeline.queue_depth", 0.0}}));
}

/// Runs `payloads` through a pipeline (batch_max = 8) that only submits
/// and drains, and returns the responses in seq order. With `thread_per_batch`, each
/// batch's submissions and execution run on a fresh std::thread, so the
/// routing code's thread_local scratch starts cold on every batch;
/// otherwise everything runs on the calling thread and the scratch stays
/// warm. The pipeline is single-threaded; the threads run strictly one
/// after another.
std::vector<std::string> RunPipeline(const net::Topology& topo,
                                     const std::vector<std::string>& payloads,
                                     bool thread_per_batch) {
  constexpr std::size_t kBatch = 8;
  Engine engine(topo, EngineOptions{});
  std::vector<std::string> out;
  svc::PipelineOptions po;
  po.batch_max = static_cast<int>(kBatch);
  svc::Pipeline pipeline(engine, po, [&](std::span<svc::Response> batch) {
    for (svc::Response& r : batch) out.push_back(std::move(r.payload));
  });
  for (std::size_t at = 0; at < payloads.size(); at += kBatch) {
    const std::size_t end = std::min(at + kBatch, payloads.size());
    const auto run_chunk = [&] {
      for (std::size_t i = at; i < end; ++i) pipeline.Submit(1, payloads[i]);
      if (end == payloads.size()) pipeline.Drain();
    };
    if (thread_per_batch) {
      std::thread(run_chunk).join();
    } else {
      run_chunk();
    }
  }
  EXPECT_EQ(pipeline.responded(), payloads.size());
  return out;
}

TEST(PipelineTest, ResponsesAreByteIdenticalAcrossThreadCounts) {
  // The engine keeps its routing scratch thread_local; no state may leak
  // between batches through it. One thread for every batch and one
  // thread per batch give byte-identical responses.
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 30, .avg_degree = 4.0, .seed = 5});
  const std::vector<std::string> payloads = MixedPayloads();
  const std::vector<std::string> single = RunPipeline(topo, payloads, false);
  const std::vector<std::string> spread = RunPipeline(topo, payloads, true);
  ASSERT_EQ(single.size(), payloads.size());
  ASSERT_EQ(single.size(), spread.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], spread[i]) << "response " << i << " diverged";
  }
}

TEST(PipelineTest, StatsGaugesAndDigestIdenticalAcrossThreadCountsAfterDrain) {
  // A drained daemon's stats response — every engine gauge and the state
  // digest — is byte-identical whether the batches ran on one thread or
  // each on its own, and the drtp.svc.pipeline.* gauges read the same
  // after drain.
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 30, .avg_degree = 4.0, .seed = 9});
  std::vector<std::string> payloads;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back(
        AdmitPayload(i, i, (7 * i) % 30, (7 * i + 13) % 30, Mbps(1)));
  }
  payloads.push_back(LinkPayload(40, "fail-link", 3));
  payloads.push_back(StatsPayload(41));  // the drained final view

  const auto pipeline_gauges = [] {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, value] : obs::Registry::Global().Snapshot().gauges) {
      if (name.rfind("drtp.svc.pipeline.", 0) == 0) out.emplace_back(name, value);
    }
    return out;
  };

  const std::vector<std::string> single = RunPipeline(topo, payloads, false);
  const auto gauges_single = pipeline_gauges();
  const std::vector<std::string> spread = RunPipeline(topo, payloads, true);
  const auto gauges_spread = pipeline_gauges();

  ASSERT_EQ(single.size(), payloads.size());
  ASSERT_EQ(single.size(), spread.size());
  EXPECT_EQ(single.back(), spread.back()) << "final stats response diverged";
  // The stats response really is the one carrying the digest + gauges.
  const JsonValue stats = ParseJson(single.back());
  const JsonValue& result = Get(stats, "result");
  EXPECT_FALSE(Get(result, "digest").AsString().empty());
  EXPECT_GE(Get(result, "degraded").AsInt64(), 0);
  EXPECT_FALSE(gauges_single.empty());
  EXPECT_EQ(gauges_single, gauges_spread)
      << "post-drain pipeline occupancy gauges diverged across thread counts";
}

TEST(PipelineTest, DrainAnswersEverySubmittedFrame) {
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 12, .avg_degree = 3.0, .seed = 2});
  Engine engine(topo, EngineOptions{});
  int responses = 0;
  svc::PipelineOptions po;
  po.batch_max = 64;  // no batch fills, so nothing runs until drain
  svc::Pipeline pipeline(engine, po, [&](std::span<svc::Response> batch) {
    responses += static_cast<int>(batch.size());
  });
  for (int i = 0; i < 5; ++i) {
    pipeline.Submit(1, AdmitPayload(i, i, 0, 5, Mbps(1)));
  }
  EXPECT_EQ(pipeline.queued(), 5u);
  pipeline.Drain();
  EXPECT_EQ(responses, 5);
  EXPECT_EQ(pipeline.submitted(), 5u);
  EXPECT_EQ(pipeline.responded(), 5u);
}

// ---- replay equivalence -----------------------------------------------

// The acceptance demo: drive a live engine (60-node Waxman, batch = 1 so
// the per-batch snapshot degenerates to the simulator's instant
// advertisement mode), capture its request log, replay the log through
// sim::RunScenario — the offline drtpsim path — and require the exact
// same final network state digest.
TEST(ReplayTest, LiveEngineMatchesOfflineScenarioReplay) {
  const net::Topology topo = net::MakeWaxman(
      net::WaxmanConfig{.nodes = 60, .avg_degree = 4.0, .seed = 11});

  EngineOptions eo;
  eo.scheme = "D-LSR";
  eo.num_backups = 1;
  eo.keep_request_log = true;
  Engine engine(topo, eo);

  sim::TrafficConfig tc;
  tc.lambda = 0.4;
  tc.duration = 400.0;
  tc.seed = 11;
  const std::vector<sim::Request> requests = sim::GenerateRequests(topo, tc);
  ASSERT_GT(requests.size(), 50u);

  // Interleave admits with releases of roughly half the earlier
  // connections, plus a couple of link failures and one repair so the
  // replay exercises switchover state too.
  std::int64_t id = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const sim::Request& r = requests[i];
    Run1(engine, AdmitPayload(id++, r.id, r.src, r.dst, r.bw));
    if (i % 2 == 1 && i >= 2) {
      Run1(engine, ReleasePayload(id++, requests[i - 2].id));
    }
    if (i == 20) Run1(engine, LinkPayload(id++, "fail-link", 3));
    if (i == 40) Run1(engine, LinkPayload(id++, "fail-link", 17));
    if (i == 60) Run1(engine, LinkPayload(id++, "repair-link", 3));
  }
  ASSERT_GT(engine.stats().admitted, 0);
  ASSERT_GT(engine.network().ActiveCount(), 0);
  const std::uint64_t live_digest = engine.StateDigest();

  // Round-trip the log through the scenario file format — the same bytes
  // `drtpd --request-log` writes and `drtpsim run --scenario` loads.
  std::stringstream file;
  engine.RequestLog().Save(file);
  const sim::Scenario log = sim::Scenario::Load(file);
  ASSERT_EQ(log.events.size(), static_cast<std::size_t>(id));

  sim::ExperimentConfig cfg;
  cfg.warmup = 0.0;
  cfg.num_backups = 1;
  cfg.reprotect_max_retries = 0;  // the daemon schedules no retries
  std::uint64_t replay_digest = 0;
  cfg.inspect_final = [&](const core::DrtpNetwork& net) {
    replay_digest = svc::NetworkStateDigest(net);
  };
  const auto scheme = sim::MakeScheme("D-LSR", topo, 1);
  sim::RunScenario(topo, log, *scheme, cfg);

  EXPECT_EQ(replay_digest, live_digest)
      << "offline replay must reproduce the live daemon's table, ledger, "
         "and APLV state bit-for-bit";
}

// ---- server end to end ------------------------------------------------

class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    std::string error;
    fd_ = ConnectUnix(path, &error);
    EXPECT_TRUE(fd_.valid()) << error;
  }

  void Send(const std::string& payload) {
    const std::string frame = svc::EncodeFrame(payload);
    ASSERT_TRUE(SendAll(fd_.get(), frame.data(), frame.size()));
  }

  void SendRaw(const std::string& bytes) {
    ASSERT_TRUE(SendAll(fd_.get(), bytes.data(), bytes.size()));
  }

  /// Blocks for the next response payload; empty on EOF, or once
  /// `timeout_ms` (if >= 0) passes with no complete response.
  std::string ReadOne(int timeout_ms = -1) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (auto p = reader_.Next()) return *p;
      if (timeout_ms >= 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd pfd{.fd = fd_.get(), .events = POLLIN, .revents = 0};
        if (left.count() <= 0 ||
            ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
          return "";
        }
      }
      char buf[4096];
      const long r = RecvSome(fd_.get(), buf, sizeof buf);
      if (r <= 0) return "";
      reader_.Feed(std::string_view(buf, static_cast<std::size_t>(r)));
    }
  }

  int fd() const { return fd_.get(); }

  /// Shuts both directions down; a thread blocked sending returns.
  void Hangup() { ::shutdown(fd_.get(), SHUT_RDWR); }

  bool AtEof() {
    char buf[64];
    return RecvSome(fd_.get(), buf, sizeof buf) <= 0;
  }

 private:
  UniqueFd fd_;
  FrameReader reader_;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : ServerTest(svc::PipelineOptions{.batch_max = 64}) {}

  explicit ServerTest(svc::PipelineOptions pipeline)
      : topo_(net::MakeWaxman(
            net::WaxmanConfig{.nodes = 16, .avg_degree = 3.5, .seed = 9})),
        engine_(topo_, EngineOptions{}),
        path_(::testing::TempDir() + "/svc_test.sock") {
    svc::ServerOptions so;
    so.socket_path = path_;
    so.pipeline = pipeline;
    server_ = std::make_unique<svc::Server>(engine_, so);
    std::string error;
    EXPECT_TRUE(server_->Start(&error)) << error;
    run_ = std::thread([this] { server_->Run(); });
  }

  ~ServerTest() override {
    server_->Shutdown();
    if (run_.joinable()) run_.join();
  }

  net::Topology topo_;
  Engine engine_;
  std::string path_;
  std::unique_ptr<svc::Server> server_;
  std::thread run_;
};

TEST_F(ServerTest, AdmitOverRealSocket) {
  TestClient client(path_);
  client.Send(AdmitPayload(1, 50, 0, 7, Mbps(1)));
  const JsonValue resp = ParseJson(client.ReadOne());
  EXPECT_EQ(Get(resp, "id").AsInt64(), 1);
  ASSERT_TRUE(Get(resp, "ok").AsBool());
  EXPECT_TRUE(Get(Get(resp, "result"), "admitted").AsBool());

  client.Send(StatsPayload(2));
  const JsonValue stats = ParseJson(client.ReadOne());
  EXPECT_EQ(Get(Get(stats, "result"), "active").AsInt64(), 1);
}

TEST_F(ServerTest, ResponsesArriveInSubmissionOrder) {
  TestClient client(path_);
  for (int i = 0; i < 20; ++i) {
    client.Send(AdmitPayload(i, i, i % 16, (i + 5) % 16, Mbps(1)));
  }
  for (int i = 0; i < 20; ++i) {
    const JsonValue resp = ParseJson(client.ReadOne());
    EXPECT_EQ(Get(resp, "id").AsInt64(), i);
  }
}

TEST_F(ServerTest, BurstInOneSendRunsInFewBatches) {
  // 256 admits in one send() are read as they arrive and batched by what
  // is queued: a handful of batches of up to batch_max = 64, not one
  // batch per request.
  TestClient client(path_);
  client.Send(StatsPayload(1000));
  const std::int64_t before =
      Get(Get(ParseJson(client.ReadOne()), "result"), "batches").AsInt64();
  std::string burst;
  for (int i = 0; i < 256; ++i) {
    burst += svc::EncodeFrame(
        AdmitPayload(i, i, i % 16, (i + 5) % 16, Mbps(1)));
  }
  client.SendRaw(burst);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(Get(ParseJson(client.ReadOne()), "id").AsInt64(), i);
  }
  client.Send(StatsPayload(1001));
  const std::int64_t after =
      Get(Get(ParseJson(client.ReadOne()), "result"), "batches").AsInt64();
  // `batches` counts the batches before the reporting one, so the first
  // stats request's own batch is in the difference.
  EXPECT_LE(after - before - 1, 5);
}

TEST_F(ServerTest, SlowReaderDoesNotStallOtherClients) {
  // Client A pipelines far more admits than both socket buffers hold and
  // reads nothing. The daemon must keep serving client B, then deliver
  // all of A's answers, in order, once A reads.
  constexpr int kBurst = 20000;
  TestClient a(path_);
  TestClient b(path_);
  std::thread writer([&] {
    std::string chunk;
    for (int i = 0; i < kBurst; ++i) {
      chunk += svc::EncodeFrame(
          AdmitPayload(i, 1000 + i, i % 16, (i + 7) % 16, Kbps(10)));
      if (chunk.size() >= 64 * 1024 || i + 1 == kBurst) {
        if (!SendAll(a.fd(), chunk.data(), chunk.size())) return;
        chunk.clear();
      }
    }
  });
  // Let A's output back up past the daemon's cap before B asks.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  b.Send(AdmitPayload(1, 1, 0, 7, Mbps(1)));
  const std::string answer = b.ReadOne(/*timeout_ms=*/10000);
  EXPECT_FALSE(answer.empty()) << "client B was not answered within 10 s";
  if (!answer.empty()) {
    EXPECT_EQ(Get(ParseJson(answer), "id").AsInt64(), 1);
  }
  for (int i = 0; i < kBurst; ++i) {
    const std::string resp = a.ReadOne(/*timeout_ms=*/60000);
    if (resp.empty() || Get(ParseJson(resp), "id").AsInt64() != i) {
      ADD_FAILURE() << "A's answer " << i << " missing or out of order";
      a.Hangup();  // unblocks the writer
      break;
    }
  }
  writer.join();
}

TEST_F(ServerTest, ShutdownDrainClosesClientThatNeverReads) {
  // The client pipelines admits until its own socket buffer stays full
  // and never reads. The daemon stops reading it at kMaxClientOutput, so
  // after Shutdown() the answers it owes cannot be delivered: the drain
  // must give up on the client after kDrainStallTimeout, not wait forever.
  TestClient a(path_);
  std::string pending;
  for (int id = 0;;) {
    if (pending.empty()) {
      for (int k = 0; k < 256; ++k, ++id) {
        pending += svc::EncodeFrame(
            AdmitPayload(id, 1000 + id, id % 16, (id + 7) % 16, Kbps(10)));
      }
    }
    const long w = ::send(a.fd(), pending.data(), pending.size(),
                          MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w > 0) {
      pending.erase(0, static_cast<std::size_t>(w));
      continue;
    }
    ASSERT_TRUE(w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "send failed: errno " << errno;
    pollfd pfd{.fd = a.fd(), .events = POLLOUT, .revents = 0};
    if (::poll(&pfd, 1, 500) == 0) break;  // full, and the daemon stopped
  }
  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  run_.join();
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_GE(took, svc::Server::kDrainStallTimeout);
  EXPECT_LT(took, svc::Server::kDrainStallTimeout + std::chrono::seconds(5));
}

/// A daemon that sheds: max_inflight = 4 below batch_max = 64.
class ShedServerTest : public ServerTest {
 protected:
  ShedServerTest()
      : ServerTest(svc::PipelineOptions{.batch_max = 64, .max_inflight = 4}) {}
};

TEST_F(ShedServerTest, BurstIsShedInOrderAndCapacityFrees) {
  // 50 admits in one send(): a frame that finds four requests queued is
  // answered `overloaded`, and the queued four run at once, so later
  // frames of the same burst are accepted again. Every frame is answered
  // once, in submission order.
  constexpr int kBurst = 50;
  TestClient client(path_);
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += svc::EncodeFrame(
        AdmitPayload(i, i, i % 16, (i + 5) % 16, Mbps(1)));
  }
  client.SendRaw(burst);
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const JsonValue resp = ParseJson(client.ReadOne());
    ASSERT_EQ(Get(resp, "id").AsInt64(), i);
    if (Get(resp, "ok").AsBool()) {
      ++accepted;
      continue;
    }
    ASSERT_EQ(ErrorCode(resp), svc::kErrOverloaded);
    EXPECT_GE(Get(Get(resp, "error"), "retry_after_ms").AsInt64(), 1);
    ++shed;
  }
  EXPECT_GT(shed, 0);
  // Each shed ran the queue, so four more frames fit before the next.
  EXPECT_GE(accepted, 4 * shed);

  // Capacity is free again, and stats count every shed frame.
  client.Send(AdmitPayload(kBurst, kBurst, 0, 7, Mbps(1)));
  EXPECT_TRUE(Get(ParseJson(client.ReadOne()), "ok").AsBool());
  client.Send(StatsPayload(kBurst + 1));
  EXPECT_EQ(Get(Get(ParseJson(client.ReadOne()), "result"), "shed").AsInt64(),
            shed);
}

TEST_F(ServerTest, OversizedFrameAnsweredThenDropped) {
  TestClient client(path_);
  const std::uint32_t huge =
      static_cast<std::uint32_t>(svc::kMaxFrameBytes) + 1;
  const char bad[4] = {static_cast<char>(huge >> 24),
                       static_cast<char>(huge >> 16),
                       static_cast<char>(huge >> 8), static_cast<char>(huge)};
  client.SendRaw(std::string(bad, 4));
  const JsonValue resp = ParseJson(client.ReadOne());
  EXPECT_FALSE(Get(resp, "ok").AsBool());
  EXPECT_EQ(ErrorCode(resp), svc::kErrBadFrame);
  EXPECT_EQ(Get(resp, "id").AsInt64(), -1);
  EXPECT_TRUE(client.AtEof());  // connection dropped after the answer

  // The server survives and keeps serving new connections.
  TestClient next(path_);
  next.Send(StatsPayload(1));
  EXPECT_TRUE(Get(ParseJson(next.ReadOne()), "ok").AsBool());
}

// ---- log prefix (satellite) -------------------------------------------

TEST(LogTest, PrefixCarriesWallClockAndThreadTag) {
  const std::string prefix =
      detail::FormatLogPrefix(LogLevel::kWarn, "src/svc/server.cc", 123);
  // "[WARN 2026-08-08T12:34:56.789Z t0 server.cc:123] "
  ASSERT_GE(prefix.size(), 20u);
  EXPECT_EQ(prefix.rfind("[WARN ", 0), 0u) << prefix;
  EXPECT_NE(prefix.find("Z t"), std::string::npos) << prefix;
  EXPECT_NE(prefix.find(" server.cc:123] "), std::string::npos)
      << "file must be basename'd: " << prefix;
  EXPECT_EQ(prefix.find("src/svc"), std::string::npos) << prefix;
  // ISO-8601 UTC timestamp: YYYY-MM-DDTHH:MM:SS.mmmZ after "[WARN ".
  const std::string ts = prefix.substr(6, 24);
  EXPECT_EQ(ts[4], '-') << ts;
  EXPECT_EQ(ts[10], 'T') << ts;
  EXPECT_EQ(ts[19], '.') << ts;
  EXPECT_EQ(ts[23], 'Z') << ts;
  for (const int i : {0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18}) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ts[i])))
        << i << " in " << ts;
  }
  // Two calls from this thread agree on the tag; a fresh thread gets a
  // different one.
  const auto tag_of = [](const std::string& p) {
    const std::size_t at = p.find("Z t");
    return p.substr(at + 2, p.find(' ', at + 2) - at - 2);
  };
  EXPECT_EQ(tag_of(prefix),
            tag_of(detail::FormatLogPrefix(LogLevel::kWarn, "x.cc", 1)));
  std::string other_tag;
  std::thread([&] {
    other_tag = tag_of(detail::FormatLogPrefix(LogLevel::kWarn, "x.cc", 1));
  }).join();
  EXPECT_NE(tag_of(prefix), other_tag);
}

}  // namespace
}  // namespace drtp
