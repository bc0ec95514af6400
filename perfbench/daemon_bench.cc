// The drtpd-wal-faults workload: a drtpd process on the paper's 60-node
// network with --wal and otherwise default flags, driven over its unix
// socket by this process: closed loop, one RPC in flight, four connections
// in turn. The client sends admits, releases of admitted connections only,
// and a seeded stream of fail-link / repair-link RPCs.
//
// Correctness: the client's tallies must match the daemon's `stats`
// counters, drtpd must drain with exit code 0, and a fresh
// svc::Engine::Recover from the run's WAL must reproduce the live state
// digest and pass CheckConsistency and a full fault::Auditor check.
//
// Traced runs add per-layer numbers: the daemon's own stage histograms
// (read through `stats` with "metrics":true), and an in-process replay of
// the WAL batches through the public calls the engine makes, timed from
// here, plus svc::Wal::AppendBatch on the same payloads and filesystem.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "replay.h"
#include "common/digest.h"
#include "common/json.h"
#include "common/json_value.h"
#include "common/rng.h"
#include "common/socket.h"
#include "drtp/admission.h"
#include "drtp/failure.h"
#include "fault/auditor.h"
#include "net/graphio.h"
#include "sim/paper.h"
#include "svc/engine.h"
#include "svc/rpc.h"
#include "svc/wal.h"
#include "svc/wire.h"

namespace drtpbench {

using namespace drtp;

namespace {

constexpr int kLanes = 4;              // client connections (nproc here)
constexpr double kDeadlineS = 1.0;     // a slower answer counts as failed
constexpr double kIoTimeoutS = 30.0;   // no answer at all: abort the run
constexpr char kSocket[] = "d.sock";
constexpr char kWal[] = "drtpd.wal";

/// A drtpd child process; killed and reaped on destruction if still up.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Starts `drtpd` in `dir` (socket, topology and WAL relative to it).
  void Spawn(const std::string& drtpd, const std::string& dir) {
    const std::string exe = std::filesystem::absolute(drtpd).string();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (::chdir(dir.c_str()) != 0) ::_exit(127);
      const int log = ::open("drtpd.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
      }
      std::string socket_flag = std::string("--socket=") + kSocket;
      std::string wal_flag = std::string("--wal=") + kWal;
      std::string topo_flag = "--topo=topo.txt";
      char* argv[] = {const_cast<char*>(exe.c_str()), socket_flag.data(),
                      topo_flag.data(), wal_flag.data(), nullptr};
      ::execv(exe.c_str(), argv);
      ::_exit(127);
    }
  }

  /// Blocks until the daemon's socket in `dir` accepts a connection.
  void WaitReady(const std::string& dir) {
    const Clock::time_point t0 = Clock::now();
    while (true) {
      std::string err;
      if (ConnectUnix(dir + "/" + kSocket, &err).valid()) return;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("drtpd exited before serving (see " + dir +
                                 "/drtpd.log)");
      }
      if (SecondsSince(t0) > kIoTimeoutS) {
        throw std::runtime_error("drtpd did not open its socket");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  struct Exit {
    int code = -1;
    double peak_rss_mb = 0.0;
  };

  /// SIGTERM (clean drain) and reap; returns exit code and VmHWM.
  Exit Stop() {
    Exit out;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    if (::wait4(pid_, &status, 0, &ru) == pid_) {
      out.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    pid_ = -1;
    return out;
  }

 private:
  pid_t pid_ = -1;
};

/// An RPC sent on a lane and not yet answered.
struct Pending {
  enum class Kind { kNone, kAdmit, kRelease, kFail, kRepair, kStats };
  Kind kind = Kind::kNone;
  std::int64_t id = 0;
  ConnId conn = kInvalidConn;
  LinkId link = kInvalidLink;
  /// Connections dropped by failures answered before this release's
  /// admit was sent; a not_found release is correct only if more were
  /// dropped since.
  std::int64_t drops_before = 0;
  Clock::time_point sent;
};

struct LiveConn {
  ConnId id = kInvalidConn;
  std::int64_t drops_before = 0;
};

struct Lane {
  int index = 0;
  UniqueFd fd;
  svc::FrameReader reader;
  Rng rng{1};
  std::vector<LiveConn> live;
  ConnId next_conn = 0;
  std::int64_t ops = 0;
  int admits_in_flight = 0;  ///< admits in `pending`
  /// Requests sent and not yet answered, oldest first (answers come in
  /// order on a connection).
  std::deque<Pending> pending;
};

/// Client-side accounting over one phase.
struct Tally {
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t failed = 0;
  std::int64_t admitted = 0;
  std::int64_t blocked = 0;
  std::int64_t released = 0;
  /// Releases answered not_found because a failure dropped the
  /// connection first (correct answers, not failures).
  std::int64_t released_dropped = 0;
  std::int64_t link_fails = 0;
  std::int64_t link_repairs = 0;
  std::int64_t error_responses = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_misses = 0;
  /// Admit and release answers: (seconds into the phase, round trip).
  std::vector<std::pair<double, double>> rtt_us;
  std::vector<double> fail_rtt_us;  ///< fail-link round trips
  /// Every answer's completion time, seconds into the phase.
  std::vector<double> done_s;
  double rtt_sum_us = 0.0;          ///< every RPC kind
  std::string first_error;
};

std::string Envelope(std::int64_t id, const char* method,
                     const std::function<void(JsonWriter&)>& params) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String(method);
  w.Key("params").BeginObject();
  params(w);
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// Closed-loop client over kLanes connections, multiplexed with poll() on
/// one thread.
///
/// The window keeps exactly one RPC in flight, taking the lanes in turn.
/// Each request then reaches an idle daemon, waits out the full linger
/// alone and is committed in a batch of its own, so every admit or release
/// round trip takes the same path (one mode). With a few requests in
/// flight, whether a request joins the lingering batch or waits for the
/// next one depends on arrival timing, and the round trips split into two
/// modes about 600 us apart.
///
/// The preload instead pipelines every lane's admits, so batches fill to
/// --batch without waiting for the linger.
class Client {
 public:
  Client(std::uint64_t seed, int nodes, int links, int target_live,
         int fault_every)
      : nodes_(nodes),
        links_(links),
        per_lane_target_(target_live / kLanes),
        fault_every_(fault_every) {
    for (int i = 0; i < kLanes; ++i) {
      lanes_[i].index = i;
      lanes_[i].rng = Rng(Mix(seed, 100 + i));
      lanes_[i].next_conn = i;
    }
  }

  void Connect(const std::string& socket_path) {
    for (Lane& lane : lanes_) {
      std::string err;
      lane.fd = ConnectUnix(socket_path, &err);
      if (!lane.fd.valid()) throw std::runtime_error("connect: " + err);
    }
  }

  /// Admits until every lane holds its share of the target occupancy. Each
  /// wave sends every lane's missing admits back to back, then collects
  /// the answers; blocked admits are made up in the next wave (the caller
  /// checks the occupancy reached).
  void Preload() {
    const Clock::time_point deadline = Clock::now() + std::chrono::minutes(1);
    for (int wave = 0; wave < 8 && Clock::now() < deadline; ++wave) {
      bool sent = false;
      for (Lane& lane : lanes_) {
        while (static_cast<int>(lane.live.size()) + lane.admits_in_flight <
               per_lane_target_) {
          SendAdmit(lane);
          ++tally_.sent;
          sent = true;
        }
      }
      if (!sent) return;
      AwaitAnswers();
    }
  }

  /// The measured window; returns its wall time (first send to last
  /// answer).
  double Window(double seconds) {
    tally_ = Tally{};
    phase_start_ = Clock::now();
    const Clock::time_point deadline =
        phase_start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (int turn = 0; Clock::now() < deadline; turn = (turn + 1) % kLanes) {
      IssueNext(lanes_[turn]);
      AwaitAnswers();
    }
    return SecondsSince(phase_start_);
  }

  /// Synchronous stats RPC on lane 0.
  JsonValue Stats() {
    Lane& lane = lanes_[0];
    Pending p;
    p.kind = Pending::Kind::kStats;
    p.id = ++next_id_;
    Send(lane, p, Envelope(p.id, "stats", [](JsonWriter& w) {
           w.Key("metrics").Bool(true);
         }));
    const std::string frame = ReadFrame(lane);
    lane.pending.pop_front();
    JsonValue root = ParseJson(frame);
    if (!root.Find("ok")->AsBool()) {
      throw std::runtime_error("stats failed: " + frame);
    }
    return *root.Find("result");
  }

  const Tally& tally() const { return tally_; }
  std::int64_t drops_total() const { return drops_total_; }
  std::int64_t released_dropped_total() const {
    return released_dropped_total_;
  }
  std::int64_t live_total() const {
    std::int64_t n = 0;
    for (const Lane& lane : lanes_) {
      n += static_cast<std::int64_t>(lane.live.size());
    }
    return n;
  }

 private:
  void Send(Lane& lane, Pending p, const std::string& payload) {
    const std::string frame = svc::EncodeFrame(payload);
    p.sent = Clock::now();
    lane.pending.push_back(p);
    if (!SendAll(lane.fd.get(), frame.data(), frame.size())) {
      throw std::runtime_error("transport: send failed");
    }
  }

  std::string ReadFrame(Lane& lane) {
    char buf[65536];
    while (true) {
      if (auto frame = lane.reader.Next()) return *frame;
      if (!lane.reader.error().empty()) {
        throw std::runtime_error("transport: " + lane.reader.error());
      }
      const long n = RecvSome(lane.fd.get(), buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("transport: daemon hung up");
      lane.reader.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  void SendAdmit(Lane& lane) {
    ++lane.admits_in_flight;
    Pending p;
    p.kind = Pending::Kind::kAdmit;
    p.id = ++next_id_;
    p.conn = lane.next_conn;
    lane.next_conn += kLanes;
    p.drops_before = drops_total_;
    const auto src = static_cast<NodeId>(lane.rng.Index(nodes_));
    auto dst = static_cast<NodeId>(lane.rng.Index(nodes_ - 1));
    if (dst >= src) ++dst;
    Send(lane, p, Envelope(p.id, "admit", [&](JsonWriter& w) {
           w.Key("conn").Int(p.conn);
           w.Key("src").Int(src);
           w.Key("dst").Int(dst);
           w.Key("bw_kbps").Int(Mbps(1));
         }));
  }

  /// Sends the lane's next window RPC: every fault_every-th of lane 0 is a
  /// fail-link of a random link or the repair of the link down; otherwise
  /// an admit while the lane is below its occupancy share, else a release.
  void IssueNext(Lane& lane) {
    ++lane.ops;
    ++tally_.sent;
    if (lane.index == 0 && fault_every_ > 0 && lane.ops % fault_every_ == 0) {
      Pending p;
      p.id = ++next_id_;
      if (down_link_ == kInvalidLink) {
        p.kind = Pending::Kind::kFail;
        p.link = static_cast<LinkId>(lane.rng.Index(links_));
      } else {
        p.kind = Pending::Kind::kRepair;
        p.link = down_link_;
      }
      Send(lane, p,
           Envelope(p.id,
                    p.kind == Pending::Kind::kFail ? "fail-link"
                                                   : "repair-link",
                    [&](JsonWriter& w) { w.Key("link").Int(p.link); }));
      return;
    }
    if (static_cast<int>(lane.live.size()) + lane.admits_in_flight <
        per_lane_target_) {
      SendAdmit(lane);
      return;
    }
    const std::size_t i = lane.rng.Index(lane.live.size());
    Pending p;
    p.kind = Pending::Kind::kRelease;
    p.id = ++next_id_;
    p.conn = lane.live[i].id;
    p.drops_before = lane.live[i].drops_before;
    lane.live[i] = lane.live.back();
    lane.live.pop_back();
    Send(lane, p, Envelope(p.id, "release", [&](JsonWriter& w) {
           w.Key("conn").Int(p.conn);
         }));
  }

  void Fail(const std::string& why) {
    ++tally_.failed;
    if (tally_.first_error.empty()) tally_.first_error = why;
  }

  void Handle(Lane& lane, const std::string& frame) {
    const Clock::time_point now = Clock::now();
    if (lane.pending.empty()) {
      Fail("answer without a request");
      return;
    }
    const Pending p = lane.pending.front();
    lane.pending.pop_front();
    const double rtt_us =
        std::chrono::duration<double, std::micro>(now - p.sent).count();
    const double at_s =
        std::chrono::duration<double>(now - phase_start_).count();
    ++tally_.answered;
    tally_.rtt_sum_us += rtt_us;
    tally_.done_s.push_back(at_s);
    if (p.kind == Pending::Kind::kAdmit) --lane.admits_in_flight;
    if (p.kind == Pending::Kind::kAdmit || p.kind == Pending::Kind::kRelease) {
      tally_.rtt_us.emplace_back(at_s, rtt_us);
    } else if (p.kind == Pending::Kind::kFail) {
      tally_.fail_rtt_us.push_back(rtt_us);
    }
    if (rtt_us > kDeadlineS * 1e6) {
      ++tally_.deadline_misses;
      Fail("deadline miss");
    }
    const JsonValue root = ParseJson(frame);
    if (root.Find("id")->AsInt64() != p.id) {
      Fail("response id mismatch");
      return;
    }
    if (!root.Find("ok")->AsBool()) {
      ++tally_.error_responses;
      const std::string code =
          root.Find("error")->Find("code")->AsString();
      if (p.kind == Pending::Kind::kRelease && code == svc::kErrNotFound &&
          drops_total_ > p.drops_before) {
        ++tally_.released_dropped;
        ++released_dropped_total_;
        return;
      }
      if (code == svc::kErrOverloaded) ++tally_.shed;
      Fail("error response: " + frame);
      return;
    }
    const JsonValue& result = *root.Find("result");
    switch (p.kind) {
      case Pending::Kind::kAdmit:
        if (result.Find("admitted")->AsBool()) {
          ++tally_.admitted;
          lane.live.push_back({p.conn, p.drops_before});
        } else {
          ++tally_.blocked;
        }
        break;
      case Pending::Kind::kRelease:
        ++tally_.released;
        break;
      case Pending::Kind::kFail:
        if (!result.Find("changed")->AsBool()) {
          Fail("fail-link of an up link did not change it");
          break;
        }
        ++tally_.link_fails;
        drops_total_ += result.Find("dropped")->AsInt64();
        down_link_ = p.link;
        break;
      case Pending::Kind::kRepair:
        if (!result.Find("changed")->AsBool()) {
          Fail("repair-link of a down link did not change it");
          break;
        }
        ++tally_.link_repairs;
        down_link_ = kInvalidLink;
        break;
      default:
        Fail("unexpected response");
    }
  }

  /// Reads answers until no lane has a request outstanding.
  void AwaitAnswers() {
    char buf[65536];
    while (true) {
      pollfd fds[kLanes];
      int waiting[kLanes];
      int n = 0;
      for (int i = 0; i < kLanes; ++i) {
        if (lanes_[i].pending.empty()) continue;
        fds[n] = pollfd{
            .fd = lanes_[i].fd.get(), .events = POLLIN, .revents = 0};
        waiting[n++] = i;
      }
      if (n == 0) return;
      const int ready = ::poll(fds, static_cast<nfds_t>(n),
                               static_cast<int>(kIoTimeoutS * 1000));
      if (ready == 0) throw std::runtime_error("transport: no answer in time");
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll failed");
      }
      for (int k = 0; k < n; ++k) {
        if (fds[k].revents == 0) continue;
        Lane& lane = lanes_[waiting[k]];
        const long got = RecvSome(lane.fd.get(), buf, sizeof buf);
        if (got <= 0) throw std::runtime_error("transport: daemon hung up");
        lane.reader.Feed(std::string_view(buf, static_cast<std::size_t>(got)));
        if (!lane.reader.error().empty()) {
          throw std::runtime_error("transport: " + lane.reader.error());
        }
        while (auto frame = lane.reader.Next()) Handle(lane, *frame);
      }
    }
  }

  int nodes_;
  int links_;
  int per_lane_target_;
  int fault_every_;
  Clock::time_point phase_start_ = Clock::now();
  std::int64_t next_id_ = 0;
  LinkId down_link_ = kInvalidLink;
  std::int64_t drops_total_ = 0;
  std::int64_t released_dropped_total_ = 0;
  Lane lanes_[kLanes];
  Tally tally_;
};

std::int64_t StatInt(const JsonValue& stats, const char* key) {
  const JsonValue* v = stats.Find(key);
  if (v == nullptr) throw std::runtime_error(std::string("stats lacks ") + key);
  return v->AsInt64();
}

/// (count, sum) of one histogram in a stats "metrics" snapshot.
std::pair<std::int64_t, std::int64_t> Histogram(const JsonValue& stats,
                                                const std::string& name) {
  const JsonValue& histograms = *stats.Find("metrics")->Find("histograms");
  for (const JsonValue& h : histograms.AsArray()) {
    if (h.Find("name")->AsString() == name) {
      return {h.Find("count")->AsInt64(), h.Find("sum")->AsInt64()};
    }
  }
  return {0, 0};
}

struct WalReplay {
  std::uint64_t digest = 0;
  double wall_s = 0.0;
  std::int64_t heap_growth_bytes = 0;
  int active = 0;
};

/// Engine::ExecuteBatch's state changes for the WAL's event kinds: one
/// publish per batch, then admit / release / fail-link / repair-link as
/// the engine enacts them. Every layer call is timed when `layers` is
/// non-null.
WalReplay ReplayWal(const net::Topology& topo,
                    const std::vector<svc::WalBatch>& batches,
                    Layers* layers) {
  const svc::EngineOptions defaults;
  std::unique_ptr<core::RoutingScheme> inner =
      sim::MakeScheme(defaults.scheme, topo, defaults.seed);
  std::optional<TimedScheme> timed;
  if (layers != nullptr) timed.emplace(*inner, *layers);
  core::RoutingScheme& scheme =
      timed.has_value() ? static_cast<core::RoutingScheme&>(*timed) : *inner;
  const auto call = [layers](Span Layers::*span, const auto& f) {
    if (layers == nullptr) {
      f();
    } else {
      Timed(layers->*span, f);
    }
  };

  WalReplay out;
  const Clock::time_point t0 = Clock::now();
  core::DrtpNetwork net(topo, core::NetworkConfig{
                                  .spare_mode = defaults.spare_mode,
                                  .duplex_failures = false});
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  const std::int64_t heap0 = HeapBytesInUse();
  Time now = 0.0;
  for (const svc::WalBatch& batch : batches) {
    call(&Layers::publish, [&] { net.PublishTo(db, now); });
    for (const sim::ScenarioEvent& e : batch.events) {
      now = e.time;
      switch (e.type) {
        case sim::ScenarioEvent::Type::kRequest: {
          bool admitted = false;
          call(&Layers::admit, [&] {
            admitted = core::AdmitConnection(
                           scheme, net, db, e.conn, e.src, e.dst, e.bw,
                           e.time, core::AdmitOptions{.num_backups = 1})
                           .admitted;
          });
          if (layers != nullptr) {
            ++layers->admit_attempts;
            if (!admitted) ++layers->admit_blocked;
          }
          break;
        }
        case sim::ScenarioEvent::Type::kRelease:
          call(&Layers::release, [&] { net.ReleaseConnection(e.conn); });
          break;
        case sim::ScenarioEvent::Type::kLinkFail:
          call(&Layers::failure_apply, [&] {
            core::ApplyLinkFailure(net, e.link, e.time, &scheme, &db);
            scheme.OnTopologyChanged(net);
          });
          call(&Layers::publish, [&] { net.PublishTo(db, e.time); });
          break;
        case sim::ScenarioEvent::Type::kLinkRepair:
          call(&Layers::repair, [&] {
            net.SetLinkUp(e.link);
            scheme.OnTopologyChanged(net);
          });
          call(&Layers::publish, [&] { net.PublishTo(db, e.time); });
          break;
        default:
          throw std::runtime_error("unexpected WAL event kind");
      }
    }
  }
  out.wall_s = SecondsSince(t0);
  out.heap_growth_bytes = HeapBytesInUse() - heap0;
  out.active = net.ActiveCount();
  out.digest = svc::NetworkStateDigest(net);
  return out;
}

}  // namespace

Result RunDaemon(const Options& opts) {
  const int target_live = opts.tiny ? 40 : 600;
  const int fault_every = opts.tiny ? 5 : 20;
  const int setup_reps = opts.tiny ? 2 : 9;
  const std::string root = "drtpd-run";
  std::filesystem::remove_all(root);

  Result r;
  r.meta.push_back({"transport", "unix socket (same host)"});
  r.meta.push_back({"drtpd_flags", "--wal, defaults otherwise (--batch=64 "
                                   "--linger_us=500 --threads=1)"});
  r.meta.push_back({"client", "closed loop, one RPC in flight, " +
                                  std::to_string(kLanes) +
                                  " connections in turn; preload pipelined"});

  // Set-up — topology file, spawn to ready, preload to the target
  // occupancy — is repeated and its median reported; the last daemon is
  // the one measured.
  std::vector<double> setup_s;
  std::vector<double> topology_s;
  net::Topology topo;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> client;
  std::string dir;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (daemon != nullptr) {
      client.reset();
      r.Gate(daemon->Stop().code == 0, "set-up drtpd did not drain cleanly");
      std::filesystem::remove_all(dir);
    }
    dir = root + "/rep" + std::to_string(rep);
    std::filesystem::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    topo = sim::MakePaperTopology(4.0, 1);
    {
      std::ofstream os(dir + "/topo.txt");
      net::WriteTopology(topo, os);
    }
    topology_s.push_back(SecondsSince(t0));
    daemon = std::make_unique<Daemon>();
    daemon->Spawn(opts.drtpd, dir);
    daemon->WaitReady(dir);
    client = std::make_unique<Client>(opts.seed, topo.num_nodes(),
                                      topo.num_links(), target_live,
                                      fault_every);
    client->Connect(dir + "/" + kSocket);
    client->Preload();
    setup_s.push_back(SecondsSince(t0));
    r.Gate(client->tally().failed == 0,
           "preload: " + client->tally().first_error);
    r.Gate(client->live_total() >= target_live / kLanes * kLanes,
           "preload did not reach the target occupancy");
  }

  const JsonValue before = client->Stats();
  const double window_s = client->Window(opts.seconds);
  const JsonValue after = client->Stats();
  const Tally t = client->tally();
  const auto delta = [&](const char* key) {
    return StatInt(after, key) - StatInt(before, key);
  };
  r.Gate(t.failed == 0, "window: " + std::to_string(t.failed) +
                            " failed RPCs, first: " + t.first_error);
  r.Gate(delta("admitted") == t.admitted && delta("blocked") == t.blocked &&
             delta("released") == t.released &&
             delta("link_fails") == t.link_fails &&
             delta("link_repairs") == t.link_repairs &&
             delta("errors") == t.error_responses,
         "client tallies disagree with the daemon's stats counters");
  r.Gate(StatInt(after, "active") ==
             client->live_total() -
                 (client->drops_total() - client->released_dropped_total()),
         "daemon active count disagrees with the client's live set");
  r.Gate(StatInt(after, "audit_violations") == 0, "daemon audit violations");
  const std::string live_digest = after.Find("digest")->AsString();
  const std::int64_t live_total = client->live_total();
  const std::int64_t drops_total = client->drops_total();
  client.reset();
  const Daemon::Exit exit = daemon->Stop();
  r.Gate(exit.code == 0, "drtpd exit code " + std::to_string(exit.code));

  r.attempted = t.sent;
  r.failed = t.failed;

  // Recovery gate: a fresh engine replaying the WAL reaches the live
  // digest and a consistent, audit-clean state (outside the window).
  const std::string wal_path = dir + "/" + kWal;
  svc::Engine engine(topo, svc::EngineOptions{});
  try {
    engine.Recover(wal_path, "");
  } catch (const std::exception& e) {
    r.Gate(false, std::string("recovery from the WAL failed: ") + e.what());
    return r;
  }
  r.Gate(DigestHex(engine.StateDigest()) == live_digest,
         "recovered digest " + DigestHex(engine.StateDigest()) +
             " != live digest " + live_digest);
  const std::string state_error = CheckState(engine.network());
  r.Gate(state_error.empty(), "recovered state: " + state_error);

  r.meta.push_back({"window_rpcs", std::to_string(t.answered)});
  r.meta.push_back({"fail_link_rpcs", std::to_string(t.link_fails)});
  r.meta.push_back({"live_connections", std::to_string(live_total)});
  r.meta.push_back({"dropped_by_failures", std::to_string(drops_total)});
  r.meta.push_back({"releases_after_drop", std::to_string(t.released_dropped)});
  r.meta.push_back({"shed", std::to_string(t.shed)});
  r.meta.push_back({"deadline_misses", std::to_string(t.deadline_misses)});
  MetricList& m = r.metrics;
  if (!opts.trace) {
    m.Put("setup_s", Median(setup_s), "s");
    // Throughput from the median gap between consecutive answers, and
    // admit/release latency per slice of the window, then the median
    // over slices. With one RPC in flight a gap is one round trip plus
    // the client's turnaround; the median keeps the host's fsync and
    // wake-up tail out (see README, "Noise on the measuring host").
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.done_s.size(); ++i) {
      gaps.push_back(t.done_s[i] - t.done_s[i - 1]);
    }
    r.Gate(!gaps.empty(), "window shorter than two answers");
    const double slice_s = opts.tiny ? 0.1 : 0.5;
    const auto slices = static_cast<std::size_t>(window_s / slice_s);
    r.Gate(slices >= 1, "window shorter than one slice");
    std::vector<std::vector<double>> rtts(slices);
    for (const auto& [at, rtt] : t.rtt_us) {
      const auto k = static_cast<std::size_t>(at / slice_s);
      if (k < slices) rtts[k].push_back(rtt);
    }
    std::vector<double> p50, p99;
    for (const std::vector<double>& slice : rtts) {
      p50.push_back(Percentile(slice, 0.50));
      p99.push_back(Percentile(slice, 0.99));
    }
    // The p99 is the host's wake-up and fsync tail more than the
    // daemon's: it is recorded, not a metric (see README, "Noise on the
    // measuring host").
    r.meta.push_back({"slices", std::to_string(slices)});
    r.meta.push_back({"latency_p99_us", std::to_string(Median(p99))});
    m.Put("events_per_s", 1.0 / Median(gaps), "1/s");
    m.Put("latency_p50_us", Median(p50), "us");
    m.Put("failover_p50_us", Percentile(t.fail_rtt_us, 0.50), "us");
    m.Put("peak_rss_mb", exit.peak_rss_mb, "MB");
    m.Put("ok_ratio",
          t.sent > 0 ? static_cast<double>(t.sent - t.failed) / t.sent : 0.0,
          "ratio");
    std::filesystem::remove_all(root);
    return r;
  }

  // Daemon-side stage means over the window, from the stats histograms.
  double stage_sum_us = 0.0;
  std::string stages = "drtpd stages over the window (stats RPC)\n";
  for (const char* stage : {"decode", "reorder", "engine", "respond"}) {
    const std::string name = std::string("drtp.svc.stage.") + stage + "_ns";
    const auto [c1, s1] = Histogram(after, name);
    const auto [c0, s0] = Histogram(before, name);
    const double mean_us =
        c1 > c0 ? static_cast<double>(s1 - s0) / (c1 - c0) / 1e3 : 0.0;
    stage_sum_us += mean_us;
    m.Put(std::string("svc.stage.") + stage + "_mean_us", mean_us, "us");
    char line[96];
    std::snprintf(line, sizeof line, "  %-24s %10.2f us\n", stage, mean_us);
    stages += line;
  }
  const double rtt_mean_us = t.answered > 0 ? t.rtt_sum_us / t.answered : 0;
  m.Put("svc.transport_mean_us", rtt_mean_us - stage_sum_us, "us");
  m.Put("svc.batch_mean",
        delta("batches") > 0
            ? static_cast<double>(delta("frames")) / delta("batches")
            : 0.0,
        "count");
  m.Put("svc.wal.bytes_per_batch",
        delta("wal_batches") > 0
            ? static_cast<double>(delta("wal_bytes")) / delta("wal_batches")
            : 0.0,
        "bytes");

  // In-process replay of the run's WAL batches, untimed then timed.
  const std::vector<svc::WalBatch> batches =
      svc::RecoverWal(wal_path, engine.ConfigDigest()).batches;
  Layers layers;
  const WalReplay plain = ReplayWal(topo, batches, nullptr);
  const WalReplay traced = ReplayWal(topo, batches, &layers);
  r.Gate(DigestHex(plain.digest) == live_digest &&
             DigestHex(traced.digest) == live_digest,
         "WAL replay digest differs from the live daemon's");

  // WAL append + fsync of the same payloads on the same filesystem, over
  // an evenly spaced sample of at most 500 batches.
  Span append;
  {
    std::string err;
    const std::unique_ptr<svc::Wal> wal =
        svc::Wal::Open(dir + "/append.wal", engine.ConfigDigest(), &err);
    r.Gate(wal != nullptr, "cannot open WAL copy: " + err);
    const std::size_t stride = std::max<std::size_t>(1, batches.size() / 500);
    for (std::size_t i = 0; wal != nullptr && i < batches.size(); i += stride) {
      const bool ok = Timed(
          append, [&] { return wal->AppendBatch(batches[i].events, &err); });
      r.Gate(ok, "WAL append failed: " + err);
    }
  }

  PutLayerMetrics(r, layers, traced.wall_s, plain.wall_s);
  m.Put("svc.wal.append_mean_us", append.mean_us(), "us");
  m.Put("drtp.bytes_per_conn",
        traced.active > 0
            ? static_cast<double>(std::max<std::int64_t>(
                  0, traced.heap_growth_bytes)) /
                  traced.active
            : 0.0,
        "bytes");
  m.Put("net.topology_build_s", Median(topology_s), "s");
  m.Put("sim.scenario_gen_s", 0.0, "s");
  r.table = LayerTable("drtpd-wal-faults in-process WAL replay", layers,
                       traced.wall_s) +
            stages;
  char line[128];
  std::snprintf(line, sizeof line,
                "  %-24s %10.2f us\n  %-24s %10.2f us (%lld sampled)\n",
                "transport", rtt_mean_us - stage_sum_us, "wal append+fsync",
                append.mean_us(), static_cast<long long>(append.calls));
  r.table += line;
  std::filesystem::remove_all(root);
  return r;
}

}  // namespace drtpbench
