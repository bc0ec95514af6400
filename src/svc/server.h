// svc::Server — unix-socket front end for the admission daemon.
//
// One poll() loop on one thread does everything: it accepts clients, reads
// length-prefixed frames, decodes and queues each one in the Pipeline,
// runs a batch whenever its input is quiet (a zero-timeout poll finds no
// readable client) or batch_max requests are queued, and writes the
// responses. Responses to one client always arrive in the order its
// requests were submitted.
//
// The loop never blocks on a client. Responses go into a per-client
// output buffer written with non-blocking sends and flushed on POLLOUT.
// A client whose unflushed output reaches kMaxClientOutput is not read
// again until the buffer falls below it, so a client that pipelines a
// large burst without reading holds back only its own requests.
//
// With PipelineOptions::max_inflight set, a frame that finds that many
// requests queued is answered `overloaded` without being decoded; the
// queued batch then runs at once, so a client that keeps sending is not
// shed frame after frame while the queue waits for quiet input.
//
// Shutdown is a self-pipe: Shutdown() writes one byte (async-signal-safe,
// callable from a SIGTERM handler) and Run() then stops reading, executes
// every queued frame, flushes every response to the clients still
// connected, closes them, and removes the socket file. A client that
// takes none of its output for kDrainStallTimeout is logged and closed
// with its answers unsent, so the drain is bounded. Framing violations
// (oversized header) get one bad_frame response and the connection is
// dropped once it is written; a peer that dies mid-frame is logged and
// forgotten.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/socket.h"
#include "svc/engine.h"
#include "svc/pipeline.h"
#include "svc/wire.h"

namespace drtp::svc {

struct ServerOptions {
  std::string socket_path;
  PipelineOptions pipeline;
  /// Invoked on the poll thread after TriggerUserEvent() (e.g. a SIGUSR1
  /// handler requesting a flight-recorder dump). Serving continues.
  std::function<void()> on_user_signal;
};

class Server {
 public:
  /// Unflushed response bytes at which a client stops being read.
  static constexpr std::size_t kMaxClientOutput = 1 << 20;  // 1 MiB
  /// How long the shutdown drain waits for a client's unsent output to
  /// make progress before it closes that client.
  static constexpr std::chrono::milliseconds kDrainStallTimeout{2000};

  Server(Engine& engine, ServerOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path. False + *error on failure.
  bool Start(std::string* error);

  /// Serves until Shutdown(). On return every received frame has been
  /// executed and answered (except to clients the drain gave up on), all
  /// connections are closed, and the socket file removed.
  /// The caller owns post-drain steps (final audit, request-log dump).
  void Run();

  /// Requests Run() to stop and drain. Async-signal-safe; idempotent.
  void Shutdown();

  /// Requests one on_user_signal callback on the poll thread, without
  /// stopping the server. Async-signal-safe.
  void TriggerUserEvent();

  std::int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Client {
    UniqueFd fd;
    FrameReader reader;
    std::string out;  ///< framed responses; out[out_pos..] not yet sent
    std::size_t out_pos = 0;
    /// Requests of this client queued in the pipeline.
    std::size_t queued = 0;
    /// No more reads; dropped once nothing more is owed to it or its
    /// output cannot be delivered.
    bool closing = false;
    std::size_t unsent() const { return out.size() - out_pos; }
  };

  void Accept();
  void ReadFrom(std::uint64_t id, Client& c);
  /// Appends one framed payload to the client's output; a client whose
  /// output was empty is queued for FlushNew.
  void Send(std::uint64_t id, Client& c, std::string_view payload);
  void Respond(std::span<Response> batch);
  /// Writes what the socket takes without blocking. A write error other
  /// than "would block" discards the output and marks the client closing.
  void Flush(Client& c);
  /// Flushes the clients whose output Send started since the last call.
  void FlushNew();
  /// Drops closing clients that are owed nothing more.
  void Reap();

  ServerOptions options_;
  Pipeline pipeline_;
  UniqueFd listen_;
  UniqueFd wake_r_;
  UniqueFd wake_w_;

  std::map<std::uint64_t, Client> clients_;
  std::vector<std::uint64_t> new_output_;  ///< ids for FlushNew
  std::uint64_t next_client_ = 1;
  std::atomic<std::int64_t> connections_accepted_{0};
};

}  // namespace drtp::svc
