#include "svc/pipeline.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace drtp::svc {
namespace {

obs::Histogram RequestLatency() {
  static const obs::Histogram h =
      obs::GetTimingHistogram("drtp.svc.request_ns");
  return h;
}

/// Per-stage pipeline latency histograms: where a request's time went
/// between the server reading its frame and its response being written.
/// `reorder` keeps its historical name but is the queue wait: decode done
/// to batch start.
struct StageHists {
  obs::Histogram decode = obs::GetTimingHistogram("drtp.svc.stage.decode_ns");
  obs::Histogram reorder =
      obs::GetTimingHistogram("drtp.svc.stage.reorder_ns");
  obs::Histogram engine = obs::GetTimingHistogram("drtp.svc.stage.engine_ns");
  obs::Histogram respond =
      obs::GetTimingHistogram("drtp.svc.stage.respond_ns");
};

const StageHists& Stages() {
  static const StageHists h;
  return h;
}

/// Live pipeline gauges: requests queued but not yet executed, and the
/// size of the last batch.
struct PipelineGauges {
  obs::Gauge queue_depth = obs::GetGauge("drtp.svc.pipeline.queue_depth");
  obs::Gauge batch_last = obs::GetGauge("drtp.svc.pipeline.batch_last");
};

const PipelineGauges& Gauges() {
  static const PipelineGauges g;
  return g;
}

/// Method slots for the per-method/outcome latency histograms: the five
/// rpc methods plus one pseudo-method for frames that failed to decode.
constexpr int kMethodSlots = 6;
constexpr const char* kMethodNames[kMethodSlots] = {
    "admit", "release", "fail_link", "repair_link", "stats", "error"};

int MethodIndex(const DecodedRequest& d) {
  return d.ok ? static_cast<int>(d.request.method) : kMethodSlots - 1;
}

/// End-to-end latency histogram for one (method, outcome) pair,
/// e.g. drtp.svc.request_ns.admit.ok.
obs::Histogram MethodHist(int method_idx, bool ok) {
  static const auto table = [] {
    std::array<std::array<obs::Histogram, 2>, kMethodSlots> t;
    for (int m = 0; m < kMethodSlots; ++m) {
      for (int o = 0; o < 2; ++o) {
        t[static_cast<std::size_t>(m)][static_cast<std::size_t>(o)] =
            obs::GetTimingHistogram(std::string("drtp.svc.request_ns.") +
                                    kMethodNames[m] +
                                    (o == 1 ? ".ok" : ".err"));
      }
    }
    return t;
  }();
  return table[static_cast<std::size_t>(method_idx)][ok ? 1 : 0];
}

/// A rendered response's outcome. The raw byte sequence `"ok":true` can
/// only come from the envelope — inside error details every quote is
/// JSON-escaped.
bool ResponseOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

}  // namespace

Pipeline::Pipeline(Engine& engine, PipelineOptions options,
                   Responder responder)
    : engine_(engine),
      options_(options),
      respond_(std::move(responder)) {
  DRTP_CHECK(options_.batch_max >= 1);
  DRTP_CHECK_MSG(options_.max_inflight >= 0 &&
                     options_.max_inflight < options_.batch_max,
                 "max_inflight must be below batch_max");
  DRTP_CHECK(options_.rpc_sample_shift < 64);
}

std::uint64_t Pipeline::Submit(std::uint64_t client,
                               std::string_view payload) {
  const std::int64_t submit_ns = MonotonicClock::Instance().NowNs();
  DecodedRequest request = DecodeRequest(payload);
  const std::uint64_t seq = next_seq_++;
  queue_.push_back(Queued{.seq = seq,
                          .client = client,
                          .submit_ns = submit_ns,
                          .decode_done_ns = MonotonicClock::Instance().NowNs(),
                          .request = std::move(request)});
  Gauges().queue_depth.Set(static_cast<double>(queue_.size()));
  const auto batch_max = static_cast<std::size_t>(options_.batch_max);
  if (queue_.size() >= batch_max) Execute(batch_max);
  return seq;
}

std::optional<std::uint64_t> Pipeline::TrySubmit(std::uint64_t client,
                                                 std::string_view payload) {
  if (options_.max_inflight > 0 &&
      static_cast<std::int64_t>(queue_.size()) >= options_.max_inflight) {
    ++shed_;
    return std::nullopt;
  }
  return Submit(client, payload);
}

int Pipeline::RetryAfterMs() const {
  if (options_.max_inflight <= 0) return 1;
  const auto queued = static_cast<std::int64_t>(queue_.size());
  const std::int64_t excess = (queued * 4) / options_.max_inflight;
  return static_cast<int>(1 + std::min<std::int64_t>(excess, 4));
}

std::size_t Pipeline::RunBatch() {
  const std::size_t n =
      std::min(queue_.size(), static_cast<std::size_t>(options_.batch_max));
  if (n > 0) Execute(n);
  return n;
}

void Pipeline::Drain() {
  const auto batch_max = static_cast<std::size_t>(options_.batch_max);
  while (!queue_.empty()) Execute(std::min(queue_.size(), batch_max));
}

void Pipeline::Execute(std::size_t n) {
  const std::uint64_t sample_mask =
      options_.rpc_sample_shift >= 0
          ? (std::uint64_t{1} << options_.rpc_sample_shift) - 1
          : ~std::uint64_t{0};
  const std::int64_t start_ns = MonotonicClock::Instance().NowNs();
  batch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    batch_.push_back(std::move(queue_[i].request));
  }
  Gauges().batch_last.Set(static_cast<double>(n));
  Gauges().queue_depth.Set(static_cast<double>(queue_.size() - n));
  std::vector<std::string> rendered = engine_.ExecuteBatch(batch_);
  DRTP_CHECK(rendered.size() == n);
  const std::int64_t done_ns = MonotonicClock::Instance().NowNs();

  // Outcomes are read before the responder may move the payloads out.
  ok_.clear();
  responses_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ok_.push_back(batch_[i].ok && ResponseOk(rendered[i]));
    responses_.push_back(Response{.seq = queue_[i].seq,
                                  .client = queue_[i].client,
                                  .payload = std::move(rendered[i])});
  }
  respond_(responses_);
  const std::int64_t respond_ns = MonotonicClock::Instance().NowNs();

  for (std::size_t i = 0; i < n; ++i) {
    const Queued& q = queue_[i];
    const std::int64_t decode_lat = q.decode_done_ns - q.submit_ns;
    const std::int64_t reorder_lat = start_ns - q.decode_done_ns;
    const std::int64_t engine_lat = done_ns - start_ns;
    const std::int64_t respond_lat = respond_ns - done_ns;
    RequestLatency().Observe(respond_ns - q.submit_ns);
    Stages().decode.Observe(decode_lat);
    Stages().reorder.Observe(reorder_lat);
    Stages().engine.Observe(engine_lat);
    Stages().respond.Observe(respond_lat);
    const int method = MethodIndex(batch_[i]);
    MethodHist(method, ok_[i]).Observe(respond_ns - q.submit_ns);
    if (options_.rpc_sample_shift >= 0 && (q.seq & sample_mask) == 0) {
      obs::FlightRecorder::Global().Record(
          obs::FlightKind::kRpcSpan, static_cast<std::int64_t>(q.seq),
          method, decode_lat, reorder_lat, engine_lat, respond_lat);
    }
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(n));
  responded_ += n;
}

}  // namespace drtp::svc
