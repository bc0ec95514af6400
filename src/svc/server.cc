#include "svc/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "svc/wire.h"

namespace drtp::svc {
namespace {

struct ServerCounters {
  obs::Counter conns = obs::GetCounter("drtp.svc.connections");
  obs::Counter rx_bytes = obs::GetCounter("drtp.svc.rx_bytes");
  obs::Counter tx_bytes = obs::GetCounter("drtp.svc.tx_bytes");
  obs::Counter bad_frames = obs::GetCounter("drtp.svc.bad_frames");
  obs::Counter torn_frames = obs::GetCounter("drtp.svc.torn_frames");
  obs::Counter shed_frames = obs::GetCounter("drtp.svc.shed_frames");
};

const ServerCounters& Counters() {
  static const ServerCounters counters;
  return counters;
}

// Self-pipe bytes: Run() multiplexes shutdown and user events on one fd.
constexpr char kWakeShutdown = 1;
constexpr char kWakeUserEvent = 2;

}  // namespace

Server::Server(Engine& engine, ServerOptions options)
    : options_(std::move(options)),
      pipeline_(engine, options_.pipeline,
                [this](std::span<Response> batch) { Respond(batch); }) {
  engine.BindShedCounter(pipeline_.shed_counter());
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_r_ = UniqueFd(fds[0]);
    wake_w_ = UniqueFd(fds[1]);
  }
}

bool Server::Start(std::string* error) {
  if (!wake_r_.valid()) {
    *error = "self-pipe creation failed";
    return false;
  }
  listen_ = ListenUnix(options_.socket_path, /*backlog=*/64, error);
  return listen_.valid();
}

void Server::Shutdown() {
  // One byte on the self-pipe; write() is async-signal-safe and extra
  // bytes are harmless (a shutdown byte wins over any queued user event).
  if (wake_w_.valid()) {
    const char b = kWakeShutdown;
    [[maybe_unused]] const auto n = ::write(wake_w_.get(), &b, 1);
  }
}

void Server::TriggerUserEvent() {
  if (wake_w_.valid()) {
    const char b = kWakeUserEvent;
    [[maybe_unused]] const auto n = ::write(wake_w_.get(), &b, 1);
  }
}

void Server::Accept() {
  UniqueFd conn(::accept(listen_.get(), nullptr, nullptr));
  if (!conn.valid()) return;
  clients_[next_client_++].fd = std::move(conn);
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  Counters().conns.Add();
}

void Server::Send(std::uint64_t id, Client& c, std::string_view payload) {
  if (c.unsent() == 0) new_output_.push_back(id);
  c.out += EncodeFrame(payload);
}

void Server::Respond(std::span<Response> batch) {
  for (Response& r : batch) {
    const auto it = clients_.find(r.client);
    // Client already gone: the response dies with it.
    if (it == clients_.end()) continue;
    --it->second.queued;
    Send(r.client, it->second, r.payload);
  }
  FlushNew();
}

void Server::Flush(Client& c) {
  while (c.unsent() > 0) {
    const long w = ::send(c.fd.get(), c.out.data() + c.out_pos, c.unsent(),
                          MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w > 0) {
      c.out_pos += static_cast<std::size_t>(w);
      Counters().tx_bytes.Add(w);
      continue;
    }
    const int err = w < 0 ? errno : EIO;
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) break;  // POLLOUT resumes
    const WriteResult res{.status = ClassifyWriteErrno(err),
                          .error_errno = err};
    // A vanished peer is routine; anything else deserves a log line with
    // the explicit taxonomy.
    if (res.status != WriteStatus::kPeerGone) {
      DRTP_LOG_WARN << "response write failed: " << res.message();
    }
    c.out.clear();
    c.out_pos = 0;
    c.closing = true;
    return;
  }
  if (c.unsent() == 0) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos >= c.out.size() / 2) {
    c.out.erase(0, c.out_pos);
    c.out_pos = 0;
  }
}

void Server::FlushNew() {
  for (const std::uint64_t id : new_output_) {
    const auto it = clients_.find(id);
    if (it != clients_.end()) Flush(it->second);
  }
  new_output_.clear();
}

void Server::Reap() {
  std::erase_if(clients_, [](const auto& entry) {
    const Client& c = entry.second;
    return c.closing && c.unsent() == 0 && c.queued == 0;
  });
}

void Server::ReadFrom(std::uint64_t id, Client& c) {
  char buf[64 * 1024];
  const long r = RecvSome(c.fd.get(), buf, sizeof buf);
  if (r <= 0) {
    if (r == 0 && c.reader.pending_bytes() > 0) {
      Counters().torn_frames.Add();
      obs::FlightRecorder::Global().Record(
          obs::FlightKind::kFrameError, static_cast<std::int64_t>(id),
          /*torn=*/1);
      DRTP_LOG_WARN << "client " << id << " closed mid-frame ("
                    << c.reader.pending_bytes() << " bytes pending)";
    }
    c.closing = true;
    return;
  }
  Counters().rx_bytes.Add(r);
  c.reader.Feed(std::string_view(buf, static_cast<std::size_t>(r)));
  while (auto payload = c.reader.Next()) {
    // Counted before submitting: a full queue executes inside TrySubmit.
    ++c.queued;
    if (!pipeline_.TrySubmit(id, *payload).has_value()) {
      --c.queued;
      // Overload shed, before decode: the frame is answered — never
      // silently dropped — with a cheap reject carrying a backoff hint.
      // The id comes from a token scan, not a parse; that is the point.
      Counters().shed_frames.Add();
      const std::string reject = RenderOverloadedResponse(
          ExtractRequestId(*payload), pipeline_.RetryAfterMs());
      // The full queue runs now, not at the next quiet point: input that
      // keeps coming finds room again, and this client's answers keep
      // their submission order.
      pipeline_.RunBatch();
      Send(id, c, reject);
    }
  }
  if (!c.reader.error().empty()) {
    // Framing violation: answer once (id -1 — no request id exists at
    // the framing layer), then drop the connection.
    Counters().bad_frames.Add();
    obs::FlightRecorder::Global().Record(
        obs::FlightKind::kFrameError, static_cast<std::int64_t>(id),
        /*torn=*/0);
    DRTP_LOG_WARN << "client " << id
                  << " framing violation: " << c.reader.error();
    Send(id, c, RenderErrorResponse(-1, kErrBadFrame, c.reader.error()));
    c.closing = true;
  }
}

void Server::Run() {
  DRTP_CHECK_MSG(listen_.valid(), "Run() before successful Start()");
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;  // parallel to pfds from index 2 on
  bool running = true;
  while (running) {
    pfds.clear();
    ids.clear();
    pfds.push_back(pollfd{.fd = wake_r_.get(), .events = POLLIN,
                          .revents = 0});
    pfds.push_back(pollfd{.fd = listen_.get(), .events = POLLIN,
                          .revents = 0});
    for (const auto& [id, c] : clients_) {
      short events = 0;
      if (!c.closing && c.unsent() < kMaxClientOutput) events |= POLLIN;
      if (c.unsent() > 0) events |= POLLOUT;
      if (events == 0) continue;  // closing, waiting for its queued frames
      pfds.push_back(pollfd{.fd = c.fd.get(), .events = events, .revents = 0});
      ids.push_back(id);
    }
    // Queued requests wait only while more input is ready to be read.
    const int n =
        ::poll(pfds.data(), pfds.size(), pipeline_.queued() > 0 ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      DRTP_LOG_ERROR << "poll failed, shutting down";
      break;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      // Drain the self-pipe and classify: any shutdown byte stops the
      // server; user-event bytes coalesce into one callback per wake.
      char wake[64];
      const auto nread = ::read(wake_r_.get(), wake, sizeof wake);
      bool stop = false;
      bool user_event = false;
      for (long i = 0; i < nread; ++i) {
        if (wake[i] == kWakeShutdown) stop = true;
        if (wake[i] == kWakeUserEvent) user_event = true;
      }
      if (stop || nread <= 0) {
        running = false;  // drain below; already-read frames still answer
        continue;
      }
      if (user_event && options_.on_user_signal) options_.on_user_signal();
    }
    if ((pfds[1].revents & POLLIN) != 0) Accept();
    bool read_any = false;
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      const auto it = clients_.find(ids[i - 2]);
      if (it == clients_.end()) continue;
      Client& c = it->second;
      if ((pfds[i].events & POLLIN) != 0 &&
          (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReadFrom(it->first, c);
        read_any = true;
      }
      // On POLLHUP/POLLERR the failed send retires the client.
      if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0 && c.unsent() > 0) {
        Flush(c);
      }
    }
    if (!read_any) pipeline_.RunBatch();
    FlushNew();
    Reap();
  }
  // Graceful drain: everything received is executed and its response
  // written to the clients still connected. A client whose output makes
  // no progress for kDrainStallTimeout is closed with its answers unsent:
  // they were executed (and are durable under --wal), so the drain still
  // counts as clean, but a peer that never reads cannot hold the daemon.
  pipeline_.Drain();
  using Clock = std::chrono::steady_clock;
  std::map<std::uint64_t, Clock::time_point> deadline;
  for (;;) {
    pfds.clear();
    ids.clear();
    const Clock::time_point now = Clock::now();
    Clock::time_point next = Clock::time_point::max();
    for (auto it = clients_.begin(); it != clients_.end();) {
      const std::uint64_t id = it->first;
      const Client& c = it->second;
      if (c.unsent() == 0) {
        ++it;
        continue;
      }
      const auto [d, fresh] =
          deadline.try_emplace(id, now + kDrainStallTimeout);
      if (!fresh && now >= d->second) {
        DRTP_LOG_WARN << "drain: client " << id << " took nothing for "
                      << kDrainStallTimeout.count() << " ms; closing it with "
                      << c.unsent() << " bytes unsent";
        it = clients_.erase(it);
        continue;
      }
      next = std::min(next, d->second);
      pfds.push_back(pollfd{.fd = c.fd.get(), .events = POLLOUT,
                            .revents = 0});
      ids.push_back(id);
      ++it;
    }
    if (pfds.empty()) break;
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(next - now);
    if (::poll(pfds.data(), pfds.size(), static_cast<int>(wait.count())) < 0 &&
        errno != EINTR) {
      break;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Client& c = clients_.at(ids[i]);
      const std::size_t before = c.unsent();
      Flush(c);
      if (c.unsent() < before) {
        deadline[ids[i]] = Clock::now() + kDrainStallTimeout;
      }
    }
  }
  clients_.clear();
  listen_.Reset();
  ::unlink(options_.socket_path.c_str());
}

}  // namespace drtp::svc
