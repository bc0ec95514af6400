// Clock abstraction for the service layer.
//
// The simulator's Time is virtual and deterministic; the daemon also needs
// *wall* time (latency stamps, log lines). Code that must stay testable
// takes a Clock&, so tests can drive deadlines with a ManualClock instead
// of sleeping.
#pragma once

#include <chrono>
#include <cstdint>

namespace drtp {

/// Nanoseconds from an arbitrary monotonic origin.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::int64_t NowNs() = 0;
};

/// The real steady clock; one process-wide instance via Instance().
class MonotonicClock final : public Clock {
 public:
  std::int64_t NowNs() override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static MonotonicClock& Instance() {
    static MonotonicClock clock;
    return clock;
  }
};

/// Hand-cranked clock for tests: time moves only when told to.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::int64_t start_ns = 0) : now_ns_(start_ns) {}
  std::int64_t NowNs() override { return now_ns_; }
  void AdvanceNs(std::int64_t delta_ns) { now_ns_ += delta_ns; }

 private:
  std::int64_t now_ns_;
};

}  // namespace drtp
