// svc::Pipeline — the daemon's request queue and batch executor.
//
// Single-threaded: the server's poll loop owns it and calls every method.
//
//   Submit(payload)   decode on the spot (DecodeRequest), append to a FIFO
//   RunBatch()        Engine::ExecuteBatch on up to batch_max queued
//                     requests, then the responder, in submission order
//
// A batch also runs from inside Submit as soon as batch_max requests are
// queued. When to run a partial batch is the caller's choice: the server
// runs one whenever its input is quiet (a zero-timeout poll finds no
// readable client), so batch size follows what is queued and no request
// ever waits on a clock. A caller that only submits and then drains gets
// batch boundaries that depend on the submission sequence alone.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "svc/engine.h"
#include "svc/rpc.h"

namespace drtp::svc {

struct PipelineOptions {
  /// Largest batch handed to the engine (>= 1).
  int batch_max = 64;
  /// Per-request trace sampling: requests with seq % 2^shift == 0 emit a
  /// flight-recorder rpc_span event carrying their per-stage latencies
  /// (0 = every request, -1 = never). Histograms see every request
  /// regardless; sampling only bounds the flight-recorder volume.
  int rpc_sample_shift = 6;
  /// Admission bound: TrySubmit sheds when this many requests are queued
  /// and not yet executed (0 = unbounded). Must be below batch_max: a
  /// full batch runs at once, so the queue never holds batch_max.
  /// Shedding happens before decode — the overload reject costs no JSON
  /// parse and no engine time — and the server answers the frame with
  /// `overloaded` + retry_after_ms instead of queueing it.
  std::int64_t max_inflight = 0;
};

/// One rendered response and where it goes. `client` is the opaque token
/// passed to Submit.
struct Response {
  std::uint64_t seq = 0;
  std::uint64_t client = 0;
  std::string payload;
};

class Pipeline {
 public:
  /// Receives each executed batch's responses in seq order; may move the
  /// payloads out.
  using Responder = std::function<void(std::span<Response> batch)>;

  Pipeline(Engine& engine, PipelineOptions options, Responder responder);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Decodes and queues one frame payload; returns its seq. Ignores
  /// max_inflight (tests and trusted callers); the server's intake path
  /// is TrySubmit.
  std::uint64_t Submit(std::uint64_t client, std::string_view payload);

  /// Bounded intake: returns the seq, or bumps shed() and returns nullopt
  /// when max_inflight requests are already queued.
  std::optional<std::uint64_t> TrySubmit(std::uint64_t client,
                                         std::string_view payload);

  /// Executes up to batch_max queued requests. Returns how many ran.
  std::size_t RunBatch();

  /// Executes everything queued.
  void Drain();

  std::size_t queued() const { return queue_.size(); }

  /// Frames shed by TrySubmit since construction.
  std::int64_t shed() const { return shed_; }

  /// For Engine::BindShedCounter (the stats RPC's `shed` key).
  const std::int64_t* shed_counter() const { return &shed_; }

  /// Backoff hint for overloaded responses: scales with how far past the
  /// bound the queue is, 1..5 ms. A hint, not a guarantee — clients add
  /// their own jittered exponential on top (drtpload does).
  int RetryAfterMs() const;

  std::uint64_t submitted() const { return next_seq_; }
  std::uint64_t responded() const { return responded_; }

 private:
  struct Queued {
    std::uint64_t seq = 0;
    std::uint64_t client = 0;
    std::int64_t submit_ns = 0;
    std::int64_t decode_done_ns = 0;
    DecodedRequest request;
  };

  /// Executes the first `n` queued requests as one batch.
  void Execute(std::size_t n);

  Engine& engine_;
  PipelineOptions options_;
  Responder respond_;
  std::deque<Queued> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t responded_ = 0;
  std::int64_t shed_ = 0;
  // Per-batch scratch, reused.
  std::vector<DecodedRequest> batch_;
  std::vector<bool> ok_;
  std::vector<Response> responses_;
};

}  // namespace drtp::svc
