// drtpstat — live stats poller for drtpd.
//
// Polls a running daemon's `stats` RPC (with the opt-in `metrics` flag)
// and renders a top-like view: engine gauges (active/degraded
// connections, batch depth, queued requests, request-log size, state
// digest) plus a per-pipeline-stage latency table with
// count/mean/p50/p95/p99, computed through the same log-bucket
// interpolation (`obs::InterpolateQuantile`) the daemon's histograms are
// stored in. Between polls the bucket arrays are differenced, so the
// stage table describes the *last interval*, not the whole uptime —
// `--once` prints a single cumulative snapshot instead.
//
// Usage:
//   drtpstat --socket=/tmp/drtpd.sock                # live, 1 s interval
//   drtpstat --socket=/tmp/drtpd.sock --once         # one snapshot, exit
//   drtpstat --socket=/tmp/drtpd.sock --count=5 --interval=0.2
#include <unistd.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/json_value.h"
#include "common/socket.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "svc/rpc.h"
#include "svc/wire.h"

using namespace drtp;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "drtpstat: %s\n", message.c_str());
  return 2;
}

const JsonValue& Field(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) {
    throw ParseError("daemon response missing field '" + std::string(key) +
                     "'");
  }
  return *v;
}

/// The pipeline stages reported per request, in pipeline order, plus the
/// end-to-end total. Names match the histograms pipeline.cc registers;
/// `reorder` is the queue wait from decode to batch start.
struct StageSpec {
  const char* label;
  const char* metric;
};
constexpr StageSpec kStages[] = {
    {"decode", "drtp.svc.stage.decode_ns"},
    {"reorder", "drtp.svc.stage.reorder_ns"},
    {"engine", "drtp.svc.stage.engine_ns"},
    {"respond", "drtp.svc.stage.respond_ns"},
    {"total", "drtp.svc.request_ns"},
};

/// One histogram reconstructed from the drtp.metrics/1 JSON: full bucket
/// array (sparse [edge, count] pairs expanded), count, and sum.
struct HistState {
  std::array<std::int64_t, obs::kHistogramBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum = 0;
};

/// Inverts HistogramBucketUpperEdge: 0 -> bucket 0, -1 (terminal
/// sentinel) -> last bucket, else edge == 2^b - 1 -> bucket b.
int BucketFromEdge(std::int64_t edge) {
  if (edge <= 0) {
    return edge == 0 ? 0 : obs::kHistogramBuckets - 1;
  }
  const int b = std::bit_width(static_cast<std::uint64_t>(edge));
  return b < obs::kHistogramBuckets ? b : obs::kHistogramBuckets - 1;
}

/// Every histogram in a stats-RPC metrics snapshot, by name.
std::map<std::string, HistState> ParseHistograms(const JsonValue& metrics) {
  std::map<std::string, HistState> out;
  for (const JsonValue& h : Field(metrics, "histograms").AsArray()) {
    HistState s;
    s.count = Field(h, "count").AsInt64();
    s.sum = Field(h, "sum").AsInt64();
    for (const JsonValue& pair : Field(h, "buckets").AsArray()) {
      const auto& edge_count = pair.AsArray();
      if (edge_count.size() != 2) {
        throw ParseError("malformed bucket pair in metrics snapshot");
      }
      s.buckets[static_cast<std::size_t>(
          BucketFromEdge(edge_count[0].AsInt64()))] +=
          edge_count[1].AsInt64();
    }
    out.emplace(Field(h, "name").AsString(), std::move(s));
  }
  return out;
}

HistState Delta(const HistState& now, const HistState& prev) {
  HistState d;
  d.count = now.count - prev.count;
  d.sum = now.sum - prev.sum;
  for (std::size_t b = 0; b < d.buckets.size(); ++b) {
    d.buckets[b] = now.buckets[b] - prev.buckets[b];
  }
  return d;
}

std::string StatsPayload(std::int64_t id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("stats");
  w.Key("params").BeginObject();
  w.Key("metrics").Bool(true);
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// Blocking request/response client over the daemon socket.
class RpcClient {
 public:
  bool Connect(const std::string& path, std::string* error) {
    fd_ = ConnectUnix(path, error);
    return fd_.valid();
  }

  bool Call(const std::string& payload, std::string* response) {
    const std::string frame = svc::EncodeFrame(payload);
    if (!SendAll(fd_.get(), frame.data(), frame.size())) return false;
    for (;;) {
      if (auto p = reader_.Next()) {
        *response = std::move(*p);
        return true;
      }
      char buf[64 * 1024];
      const long r = RecvSome(fd_.get(), buf, sizeof buf);
      if (r <= 0) return false;
      reader_.Feed(std::string_view(buf, static_cast<std::size_t>(r)));
    }
  }

 private:
  UniqueFd fd_;
  svc::FrameReader reader_;
};

void RenderSnapshot(const JsonValue& result,
                    const std::map<std::string, HistState>& hists,
                    const std::map<std::string, HistState>* prev,
                    double interval_s) {
  const double gauge_queue = [&] {
    const JsonValue* metrics = result.Find("metrics");
    if (metrics == nullptr) return 0.0;
    const JsonValue* g =
        Field(*metrics, "gauges").Find("drtp.svc.pipeline.queue_depth");
    return g != nullptr ? g->AsDouble() : 0.0;
  }();

  std::printf(
      "conns: %lld active, %lld degraded | admitted %lld, blocked %lld, "
      "released %lld, errors %lld\n",
      static_cast<long long>(Field(result, "active").AsInt64()),
      static_cast<long long>(Field(result, "degraded").AsInt64()),
      static_cast<long long>(Field(result, "admitted").AsInt64()),
      static_cast<long long>(Field(result, "blocked").AsInt64()),
      static_cast<long long>(Field(result, "released").AsInt64()),
      static_cast<long long>(Field(result, "errors").AsInt64()));
  std::printf(
      "pipeline: %lld batches (last %lld), queue depth %.0f, "
      "request log %lld events\n",
      static_cast<long long>(Field(result, "batches").AsInt64()),
      static_cast<long long>(Field(result, "batch_last").AsInt64()),
      gauge_queue,
      static_cast<long long>(Field(result, "request_log_events").AsInt64()));
  std::printf(
      "network: %lld nodes, %lld links | pbk %.3f | audit %lld/%lld | "
      "digest %s\n",
      static_cast<long long>(Field(result, "nodes").AsInt64()),
      static_cast<long long>(Field(result, "links").AsInt64()),
      Field(result, "pbk").AsDouble(),
      static_cast<long long>(Field(result, "audit_violations").AsInt64()),
      static_cast<long long>(Field(result, "audit_checks").AsInt64()),
      Field(result, "digest").AsString().c_str());

  TextTable t({"stage", "count", "rate/s", "mean us", "p50 us", "p95 us",
               "p99 us"});
  for (const StageSpec& stage : kStages) {
    const auto it = hists.find(stage.metric);
    HistState h = it != hists.end() ? it->second : HistState{};
    if (prev != nullptr) {
      const auto pit = prev->find(stage.metric);
      if (pit != prev->end()) h = Delta(h, pit->second);
    }
    t.BeginRow();
    t.Cell(stage.label);
    t.Cell(h.count);
    t.Cell(interval_s > 0.0 ? static_cast<double>(h.count) / interval_s
                            : 0.0,
           1);
    t.Cell(h.count > 0 ? static_cast<double>(h.sum) /
                             static_cast<double>(h.count) / 1e3
                       : 0.0,
           1);
    t.Cell(obs::InterpolateQuantile(h.buckets.data(), obs::kHistogramBuckets,
                                    0.50) /
               1e3,
           1);
    t.Cell(obs::InterpolateQuantile(h.buckets.data(), obs::kHistogramBuckets,
                                    0.95) /
               1e3,
           1);
    t.Cell(obs::InterpolateQuantile(h.buckets.data(), obs::kHistogramBuckets,
                                    0.99) /
               1e3,
           1);
  }
  std::fputs(t.Render().c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("drtpstat");
  auto& socket_path =
      flags.String("socket", "", "daemon socket path (required)");
  auto& interval =
      flags.Double("interval", 1.0, "seconds between polls (live mode)");
  auto& count = flags.Int64(
      "count", 0, "number of polls before exiting (0 = until the daemon "
      "goes away)", 0, 1000000000);
  auto& once = flags.Bool(
      "once", false, "print one cumulative snapshot and exit (no deltas, "
      "no screen clearing)");
  flags.Parse(argc, argv);

  if (socket_path.empty()) return Fail("--socket is required");
  if (interval <= 0.0) return Fail("--interval must be > 0");

  RpcClient client;
  std::string error;
  if (!client.Connect(socket_path, &error)) return Fail(error);

  // Clear the screen between polls only when live on a terminal; piped
  // output (tests, logs) gets sequential snapshots.
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  std::map<std::string, HistState> prev;
  bool have_prev = false;
  std::int64_t id = 0;
  try {
    for (;;) {
      std::string response;
      if (!client.Call(StatsPayload(id++), &response)) {
        if (id == 1) return Fail("stats request failed (daemon gone?)");
        break;  // daemon shut down between polls: normal exit
      }
      const JsonValue v = ParseJson(response);
      const JsonValue* ok = v.Find("ok");
      if (ok == nullptr || !ok->AsBool()) {
        return Fail("daemon answered stats with an error: " + response);
      }
      const JsonValue& result = Field(v, "result");
      std::map<std::string, HistState> hists =
          ParseHistograms(Field(result, "metrics"));

      if (once) {
        RenderSnapshot(result, hists, nullptr, 0.0);
        return 0;
      }
      if (tty && have_prev) std::fputs("\x1b[H\x1b[2J", stdout);
      RenderSnapshot(result, hists, have_prev ? &prev : nullptr,
                     have_prev ? interval : 0.0);
      if (!tty) std::fputs("\n", stdout);
      prev = std::move(hists);
      have_prev = true;
      if (count > 0 && id >= count) return 0;
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  return 0;
}
