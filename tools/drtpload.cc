// drtpload — load generator for drtpd.
//
// Drives a running daemon over its unix socket with a deterministic
// seeded workload derived from the simulator's own traffic model
// (sim::GenerateRequests): Poisson arrivals, uniform lifetimes, UT/NT
// endpoint patterns. Each generated connection becomes an admit and a
// release event, replayed either closed-loop (N workers, each waits for
// every response — measures service latency) or open-loop (one firehose
// connection, optionally paced — measures throughput under overload).
//
// Events are partitioned across workers by connection id, so a release is
// only ever sent by the worker that already saw its admit answered. A
// connection whose admit was answered blocked was never established, so
// its release is not an error: closed loop skips it, open loop (which has
// already sent it) counts its `not_found` answer as a blocked release.
//
// Closed-loop workers are fault-tolerant clients: `overloaded` responses
// are retried after a jittered exponential backoff seeded from the hint
// the daemon returns, transport failures trigger reconnect-with-backoff
// (surviving a daemon crash + `--recover` restart), and a request resent
// after a transport failure treats `conn_exists` (admit) / `not_found`
// (release) as a duplicate ack — the original execution committed before
// the crash. `--deadline_ms` bounds each request across all its retries.
//
// Reports admissions/sec, client-observed latency percentiles, and the
// daemon's own stats (P_bk of the admitted set, state digest) as one JSON
// object — the format stored in results/BENCH_drtpd.json.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "obs/metrics.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/json_value.h"
#include "common/rng.h"
#include "common/socket.h"
#include "net/topology.h"
#include "sim/traffic.h"
#include "svc/rpc.h"
#include "svc/wire.h"

using namespace drtp;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "drtpload: %s\n", message.c_str());
  return 2;
}

/// Field lookup that throws (caught by main's handler) instead of
/// returning nullptr — stats responses come from our own daemon, so a
/// missing field is a protocol bug worth a loud exit.
const JsonValue& Field(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) {
    throw std::runtime_error("daemon response missing field '" +
                             std::string(key) + "'");
  }
  return *v;
}

/// One admit or release to send.
struct LoadEvent {
  bool admit = false;
  ConnId conn = kInvalidConn;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bandwidth bw = 0;
};

/// Blocking request/response client over one daemon connection.
class RpcClient {
 public:
  bool Connect(const std::string& path, std::string* error) {
    fd_ = ConnectUnix(path, error);
    return fd_.valid();
  }

  /// Sends one payload and waits for the matching response payload.
  bool Call(const std::string& payload, std::string* response) {
    const std::string frame = svc::EncodeFrame(payload);
    if (!SendAll(fd_.get(), frame.data(), frame.size())) return false;
    return ReadOne(response);
  }

  bool Send(const std::string& payload) {
    const std::string frame = svc::EncodeFrame(payload);
    return SendAll(fd_.get(), frame.data(), frame.size());
  }

  bool ReadOne(std::string* response) {
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

std::string AdmitPayload(std::int64_t id, const LoadEvent& e) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("admit");
  w.Key("params").BeginObject();
  w.Key("conn").Int(e.conn);
  w.Key("src").Int(e.src);
  w.Key("dst").Int(e.dst);
  w.Key("bw_kbps").Int(e.bw);
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

std::string StatsPayload(std::int64_t id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("stats");
  w.EndObject();
  return w.str();
}

/// Shared tallies across workers.
struct Tally {
  std::mutex mu;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t admitted = 0;
  std::int64_t blocked = 0;
  std::int64_t released = 0;
  std::int64_t transport_failures = 0;
  std::int64_t aborted = 0;            ///< workers that gave up for good
  std::int64_t overloaded = 0;         ///< shed responses received
  std::int64_t retries = 0;            ///< resends after overloaded
  std::int64_t reconnects = 0;         ///< successful re-Connects
  std::int64_t dup_acks = 0;           ///< conn_exists/not_found-as-success
  std::int64_t deadline_exceeded = 0;  ///< requests abandoned at deadline
  /// Releases of connections whose admit was answered blocked: skipped
  /// in closed loop, answered not_found in open loop.
  std::int64_t blocked_releases = 0;
  /// Wall-clock (Unix epoch) time of the last request send by any worker,
  /// retries included; after it the workers no longer touch the daemon.
  double last_send_unix_s = 0.0;
  std::vector<std::int64_t> latency_ns;

  /// Stamps a send; the caller holds `mu`.
  void NoteSend() {
    last_send_unix_s =
        std::max(last_send_unix_s,
                 std::chrono::duration<double>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count());
  }
};

/// What a response payload means before counting it: success, a
/// retryable overload shed, or a terminal error with its taxonomy code.
struct Verdict {
  bool ok = false;
  bool overloaded = false;
  int retry_after_ms = 1;
  std::string code;  ///< error code when !ok (empty if unparseable)
};

Verdict ClassifyResponse(const std::string& payload) {
  Verdict out;
  try {
    const JsonValue v = ParseJson(payload);
    const JsonValue* ok = v.Find("ok");
    if (ok != nullptr && ok->AsBool()) {
      out.ok = true;
      return out;
    }
    if (const JsonValue* err = v.Find("error")) {
      if (const JsonValue* code = err->Find("code")) {
        out.code = code->AsString();
      }
      if (out.code == svc::kErrOverloaded) {
        out.overloaded = true;
        if (const JsonValue* ra = err->Find("retry_after_ms")) {
          out.retry_after_ms =
              std::max<int>(1, static_cast<int>(ra->AsInt64()));
        }
      }
    }
  } catch (const ParseError&) {
  }
  return out;
}

/// Counts one ok response payload into the tally (mu held by caller).
/// Returns true iff it answered an admit as blocked.
bool CountOkResponse(const std::string& payload, Tally& t) {
  ++t.ok;
  try {
    const JsonValue v = ParseJson(payload);
    const JsonValue* result = v.Find("result");
    if (result == nullptr) return false;
    if (const JsonValue* admitted = result->Find("admitted")) {
      if (admitted->AsBool()) {
        ++t.admitted;
        return false;
      }
      ++t.blocked;
      return true;
    }
    if (const JsonValue* released = result->Find("released")) {
      if (released->AsBool()) ++t.released;
    }
  } catch (const ParseError&) {
  }
  return false;
}

/// Jittered sleep: base × U[0.5, 1.5), the decorrelation that keeps a
/// fleet of backed-off clients from re-stampeding in phase.
void SleepJitteredMs(Rng& rng, double base_ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      base_ms * rng.UniformReal(0.5, 1.5)));
}

/// Latency quantiles through the shared obs log-bucket estimator — the
/// same math drtpstat renders live, replacing the old nearest-rank
/// picker over a sorted vector.
struct LatencyQuantiles {
  std::array<std::int64_t, obs::kHistogramBuckets> buckets{};

  void Add(std::int64_t ns) {
    int b = ns <= 0 ? 0 : std::bit_width(static_cast<std::uint64_t>(ns));
    if (b >= obs::kHistogramBuckets) b = obs::kHistogramBuckets - 1;
    ++buckets[static_cast<std::size_t>(b)];
  }

  double AtNs(double q) const {
    return obs::InterpolateQuantile(buckets.data(), obs::kHistogramBuckets,
                                    q);
  }
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("drtpload");
  auto& socket_path =
      flags.String("socket", "", "daemon socket path (required)");
  auto& mode = flags.String("mode", "closed", "closed|open");
  auto& workers =
      flags.Int64("workers", 2, "closed-loop worker connections", 1, 64);
  auto& lambda = flags.Double("lambda", 0.5, "arrival rate /s (workload)");
  auto& duration =
      flags.Double("duration", 200.0, "workload horizon, seconds (virtual)");
  auto& pattern = flags.String("pattern", "UT", "UT|NT");
  auto& bw = flags.Int64("bw_mbps", 1, "per-connection bandwidth, Mbps");
  auto& seed = flags.Int64("seed", 1, "workload seed");
  auto& rate = flags.Int64(
      "rate", 0, "open-loop send pacing, requests/s (0 = unpaced)", 0,
      1000000);
  auto& deadline_ms = flags.Int64(
      "deadline_ms", 0,
      "per-request deadline across retries/reconnects, milliseconds "
      "(closed loop; 0 = none)",
      0, 600000);
  auto& reconnect_s = flags.Int64(
      "reconnect_s", 30,
      "closed loop: keep retrying a dead socket this long before giving "
      "up (rides out a daemon crash + --recover restart)",
      0, 3600);
  auto& out = flags.String("out", "-", "JSON report file, '-' for stdout");
  flags.Parse(argc, argv);

  if (socket_path.empty()) return Fail("--socket is required");
  if (mode != "closed" && mode != "open") {
    return Fail("unknown --mode '" + mode + "' (closed|open)");
  }

  try {
    // The daemon knows the topology; ask it for the node count so the
    // workload generator needs no topology file.
    RpcClient control;
    std::string error;
    if (!control.Connect(socket_path, &error)) return Fail(error);
    std::string stats0;
    if (!control.Call(StatsPayload(0), &stats0)) {
      return Fail("stats request failed (daemon gone?)");
    }
    const JsonValue v0 = ParseJson(stats0);
    const int nodes =
        static_cast<int>(Field(Field(v0, "result"), "nodes").AsInt64());

    // Same traffic model the simulator replays; the placeholder topology
    // only contributes its node count.
    net::Topology shape;
    for (int i = 0; i < nodes; ++i) shape.AddNode();
    sim::TrafficConfig tc;
    tc.pattern = pattern == "NT" ? sim::TrafficPattern::kHotspot
                                 : sim::TrafficPattern::kUniform;
    tc.lambda = lambda;
    tc.duration = duration;
    tc.bw = Mbps(bw);
    tc.seed = static_cast<std::uint64_t>(seed);
    const std::vector<sim::Request> requests =
        sim::GenerateRequests(shape, tc);

    // Expand to time-ordered admit/release events (the simulator's
    // interleaving), then partition by connection id.
    struct Timed {
      double t;
      LoadEvent e;
    };
    std::vector<Timed> timeline;
    timeline.reserve(requests.size() * 2);
    for (const sim::Request& r : requests) {
      timeline.push_back({r.arrival,
                          {.admit = true,
                           .conn = r.id,
                           .src = r.src,
                           .dst = r.dst,
                           .bw = r.bw}});
      // Releases past the horizon are not sent — connections still alive
      // at the end of the run stay in the daemon's table, so the final
      // stats (P_bk of the admitted set) describe a loaded network, the
      // simulator's measurement-window convention.
      if (r.arrival + r.lifetime < duration) {
        timeline.push_back(
            {r.arrival + r.lifetime, {.admit = false, .conn = r.id}});
      }
    }
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const Timed& a, const Timed& b) { return a.t < b.t; });

    Tally tally;
    const std::int64_t start_ns = MonotonicClock::Instance().NowNs();

    if (mode == "closed") {
      const int w = static_cast<int>(workers);
      std::vector<std::vector<LoadEvent>> shards(
          static_cast<std::size_t>(w));
      for (const Timed& te : timeline) {
        shards[static_cast<std::size_t>(te.e.conn % w)].push_back(te.e);
      }
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(w));
      for (int i = 0; i < w; ++i) {
        threads.emplace_back([&, i] {
          // Per-worker backoff jitter stream: seeded, so a re-run sleeps
          // (and therefore interleaves) the same way.
          Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
                  static_cast<std::uint64_t>(i) + 1);
          RpcClient client;
          std::string err;
          bool connected = client.Connect(socket_path, &err);
          std::int64_t next_id = 1;
          std::string response;
          std::unordered_set<ConnId> blocked;
          for (const LoadEvent& e : shards[static_cast<std::size_t>(i)]) {
            if (!e.admit && blocked.erase(e.conn) > 0) {
              std::lock_guard<std::mutex> l(tally.mu);
              ++tally.blocked_releases;
              continue;
            }
            const std::string payload = e.admit
                                            ? AdmitPayload(next_id, e)
                                            : ReleasePayload(next_id, e.conn);
            ++next_id;
            const std::int64_t deadline_ns =
                deadline_ms > 0 ? MonotonicClock::Instance().NowNs() +
                                      deadline_ms * 1000000
                                : 0;
            // One request, many attempts: reconnects after transport
            // failure, resends after overload, until answered or the
            // deadline passes. `resent` marks a send the daemon may have
            // already executed — only then do conn_exists / not_found
            // read as duplicate acks rather than errors.
            bool resent = false;
            int overload_attempt = 0;
            int reconnect_attempt = 0;
            std::int64_t down_since_ns = 0;
            for (;;) {
              if (deadline_ns > 0 &&
                  MonotonicClock::Instance().NowNs() > deadline_ns) {
                std::lock_guard<std::mutex> l(tally.mu);
                ++tally.deadline_exceeded;
                break;
              }
              if (!connected) {
                const std::int64_t now = MonotonicClock::Instance().NowNs();
                if (down_since_ns == 0) down_since_ns = now;
                if (now - down_since_ns > reconnect_s * 1000000000LL) {
                  // The daemon never came back: record the permanent
                  // failure and abandon this worker's remaining shard
                  // (its releases would all dead-end anyway).
                  std::lock_guard<std::mutex> l(tally.mu);
                  ++tally.transport_failures;
                  ++tally.aborted;
                  return;
                }
                SleepJitteredMs(
                    rng, 5.0 * static_cast<double>(
                                   1 << std::min(reconnect_attempt, 6)));
                ++reconnect_attempt;
                client = RpcClient();
                if (!client.Connect(socket_path, &err)) continue;
                connected = true;
                down_since_ns = 0;
                resent = true;
                std::lock_guard<std::mutex> l(tally.mu);
                ++tally.reconnects;
              }
              {
                std::lock_guard<std::mutex> l(tally.mu);
                tally.NoteSend();
              }
              const std::int64_t t0 = MonotonicClock::Instance().NowNs();
              if (!client.Call(payload, &response)) {
                connected = false;
                std::lock_guard<std::mutex> l(tally.mu);
                ++tally.transport_failures;
                continue;
              }
              const std::int64_t t1 = MonotonicClock::Instance().NowNs();
              const Verdict verdict = ClassifyResponse(response);
              {
                std::lock_guard<std::mutex> l(tally.mu);
                tally.latency_ns.push_back(t1 - t0);
                if (verdict.ok) {
                  if (CountOkResponse(response, tally)) blocked.insert(e.conn);
                  break;
                }
                if (verdict.overloaded) {
                  ++tally.overloaded;
                  ++tally.retries;
                } else if (resent && e.admit &&
                           verdict.code == svc::kErrConnExists) {
                  // Our pre-crash admit committed; the retry is a dup.
                  ++tally.ok;
                  ++tally.admitted;
                  ++tally.dup_acks;
                  break;
                } else if (resent && !e.admit &&
                           verdict.code == svc::kErrNotFound) {
                  ++tally.ok;
                  ++tally.released;
                  ++tally.dup_acks;
                  break;
                } else {
                  ++tally.errors;
                  break;
                }
              }
              // Overloaded: honor the daemon's hint, escalating
              // exponentially (capped) with jitter, then resend.
              SleepJitteredMs(
                  rng, static_cast<double>(verdict.retry_after_ms) *
                           static_cast<double>(
                               1 << std::min(overload_attempt, 6)));
              ++overload_attempt;
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
    } else {
      // Open loop: one connection; a reader thread collects responses
      // while the main thread fires (optionally paced) requests.
      RpcClient client;
      if (!client.Connect(socket_path, &error)) return Fail(error);
      std::mutex stamp_mu;
      std::vector<std::int64_t> stamps(timeline.size() + 1, 0);
      std::thread reader([&] {
        std::string response;
        std::unordered_set<ConnId> blocked;
        for (std::size_t i = 0; i < timeline.size(); ++i) {
          if (!client.ReadOne(&response)) {
            std::lock_guard<std::mutex> l(tally.mu);
            ++tally.transport_failures;
            return;
          }
          const std::int64_t t1 = MonotonicClock::Instance().NowNs();
          std::int64_t sent_ns = 0;
          // Request id k carries timeline[k - 1].
          const LoadEvent* event = nullptr;
          try {
            const std::int64_t id =
                Field(ParseJson(response), "id").AsInt64();
            std::lock_guard<std::mutex> sl(stamp_mu);
            if (id >= 1 && static_cast<std::size_t>(id) < stamps.size()) {
              sent_ns = stamps[static_cast<std::size_t>(id)];
              event = &timeline[static_cast<std::size_t>(id - 1)].e;
            }
          } catch (const std::exception&) {
          }
          const Verdict verdict = ClassifyResponse(response);
          std::lock_guard<std::mutex> l(tally.mu);
          if (sent_ns > 0) tally.latency_ns.push_back(t1 - sent_ns);
          if (verdict.ok) {
            if (CountOkResponse(response, tally) && event != nullptr) {
              blocked.insert(event->conn);
            }
          } else if (event != nullptr && !event->admit &&
                     verdict.code == svc::kErrNotFound &&
                     blocked.erase(event->conn) > 0) {
            ++tally.blocked_releases;
          } else if (verdict.overloaded) {
            // Open loop never retries — a shed is the measurement, not
            // an error: it is exactly what overload pressure looks like.
            ++tally.overloaded;
          } else {
            ++tally.errors;
          }
        }
      });
      const double gap_ns = rate > 0 ? 1e9 / static_cast<double>(rate) : 0.0;
      std::int64_t next_id = 1;
      std::int64_t next_send = MonotonicClock::Instance().NowNs();
      for (const Timed& te : timeline) {
        if (gap_ns > 0) {
          while (MonotonicClock::Instance().NowNs() < next_send) {
            std::this_thread::yield();
          }
          next_send += static_cast<std::int64_t>(gap_ns);
        }
        const std::string payload =
            te.e.admit ? AdmitPayload(next_id, te.e)
                       : ReleasePayload(next_id, te.e.conn);
        {
          std::lock_guard<std::mutex> sl(stamp_mu);
          stamps[static_cast<std::size_t>(next_id)] =
              MonotonicClock::Instance().NowNs();
        }
        ++next_id;
        {
          std::lock_guard<std::mutex> l(tally.mu);
          tally.NoteSend();
        }
        if (!client.Send(payload)) {
          std::lock_guard<std::mutex> l(tally.mu);
          ++tally.transport_failures;
          break;
        }
      }
      reader.join();
    }

    const std::int64_t wall_ns =
        MonotonicClock::Instance().NowNs() - start_ns;
    const double wall_s = static_cast<double>(wall_ns) / 1e9;

    // Final daemon-side view: P_bk of the admitted set + state digest.
    // The control connection may have died with a crashed daemon while
    // the workers rode it out — reconnect with the same patience.
    std::string stats1;
    {
      Rng rng(static_cast<std::uint64_t>(seed) ^ 0xc0117201ULL);
      const std::int64_t give_up_ns = MonotonicClock::Instance().NowNs() +
                                      reconnect_s * 1000000000LL;
      int attempt = 0;
      while (!control.Call(StatsPayload(1), &stats1)) {
        if (MonotonicClock::Instance().NowNs() > give_up_ns) {
          return Fail("final stats request failed");
        }
        SleepJitteredMs(
            rng, 5.0 * static_cast<double>(1 << std::min(attempt, 6)));
        ++attempt;
        control = RpcClient();
        control.Connect(socket_path, &error);
      }
    }
    const JsonValue v1 = ParseJson(stats1);
    const JsonValue& r1 = Field(v1, "result");

    LatencyQuantiles quantiles;
    double mean_ns = 0.0;
    std::int64_t max_ns = 0;
    for (const std::int64_t ns : tally.latency_ns) {
      quantiles.Add(ns);
      mean_ns += static_cast<double>(ns);
      max_ns = std::max(max_ns, ns);
    }
    if (!tally.latency_ns.empty()) {
      mean_ns /= static_cast<double>(tally.latency_ns.size());
    }

    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("drtp.bench.drtpd/1");
    w.Key("mode").String(mode);
    w.Key("workers").Int(mode == "closed" ? workers : 1);
    w.Key("workload").BeginObject();
    w.Key("pattern").String(pattern);
    w.Key("lambda").Double(lambda);
    w.Key("duration").Double(duration);
    w.Key("bw_mbps").Int(bw);
    w.Key("seed").Int(seed);
    w.Key("requests").Int(static_cast<std::int64_t>(requests.size()));
    w.Key("events").Int(static_cast<std::int64_t>(timeline.size()));
    w.EndObject();
    w.Key("totals").BeginObject();
    w.Key("ok").Int(tally.ok);
    w.Key("errors").Int(tally.errors);
    w.Key("admitted").Int(tally.admitted);
    w.Key("blocked").Int(tally.blocked);
    w.Key("released").Int(tally.released);
    w.Key("transport_failures").Int(tally.transport_failures);
    w.Key("aborted").Int(tally.aborted);
    w.Key("overloaded").Int(tally.overloaded);
    w.Key("retries").Int(tally.retries);
    w.Key("reconnects").Int(tally.reconnects);
    w.Key("dup_acks").Int(tally.dup_acks);
    w.Key("deadline_exceeded").Int(tally.deadline_exceeded);
    w.Key("blocked_releases").Int(tally.blocked_releases);
    w.EndObject();
    w.Key("throughput").BeginObject();
    w.Key("wall_s").Double(wall_s);
    w.Key("last_send_unix_s").Double(tally.last_send_unix_s);
    w.Key("requests_per_s")
        .Double(wall_s > 0.0
                    ? static_cast<double>(tally.ok + tally.errors) / wall_s
                    : 0.0);
    w.Key("admissions_per_s")
        .Double(wall_s > 0.0 ? static_cast<double>(tally.admitted) / wall_s
                             : 0.0);
    w.EndObject();
    w.Key("latency_us").BeginObject();
    w.Key("count").Int(static_cast<std::int64_t>(tally.latency_ns.size()));
    w.Key("mean").Double(mean_ns / 1e3);
    w.Key("p50").Double(quantiles.AtNs(0.50) / 1e3);
    w.Key("p90").Double(quantiles.AtNs(0.90) / 1e3);
    w.Key("p95").Double(quantiles.AtNs(0.95) / 1e3);
    w.Key("p99").Double(quantiles.AtNs(0.99) / 1e3);
    w.Key("max").Double(static_cast<double>(max_ns) / 1e3);
    w.EndObject();
    w.Key("daemon").BeginObject();
    w.Key("active").Int(Field(r1, "active").AsInt64());
    w.Key("admitted").Int(Field(r1, "admitted").AsInt64());
    w.Key("blocked").Int(Field(r1, "blocked").AsInt64());
    w.Key("frames").Int(Field(r1, "frames").AsInt64());
    w.Key("batches").Int(Field(r1, "batches").AsInt64());
    w.Key("pbk").Double(Field(r1, "pbk").AsDouble());
    w.Key("digest").String(Field(r1, "digest").AsString());
    w.Key("audit_violations").Int(Field(r1, "audit_violations").AsInt64());
    w.EndObject();
    w.EndObject();

    if (out == "-") {
      std::printf("%s\n", w.str().c_str());
    } else {
      std::ofstream os(out, std::ios::trunc);
      if (!os.good()) return Fail("cannot write '" + out + "'");
      os << w.str() << '\n';
      std::fprintf(stderr,
                   "drtpload: %lld responses (%lld admitted) in %.2fs -> %s\n",
                   static_cast<long long>(tally.ok + tally.errors),
                   static_cast<long long>(tally.admitted), wall_s,
                   out.c_str());
    }
    // Closed loop tolerates transient transport failures (they were
    // retried through reconnect); only a worker that gave up for good —
    // or any open-loop break, which has no retry path — fails the run.
    const bool failed = tally.aborted > 0 ||
                        (mode == "open" && tally.transport_failures > 0);
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
}
