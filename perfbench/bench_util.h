// Shared pieces of the drtpbench harness: timers, per-layer accumulators,
// the metric list a workload reports, and process resource readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace drtpbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls into one layer: how many, and the wall time they took.
struct Span {
  std::int64_t calls = 0;
  double busy_s = 0.0;

  void Add(double s) {
    ++calls;
    busy_s += s;
  }
  double mean_us() const { return calls == 0 ? 0.0 : busy_s * 1e6 / calls; }
};

/// Times one call into a layer and charges it to `span`.
template <typename F>
auto Timed(Span& span, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    span.Add(SecondsSince(t0));
  } else {
    auto r = f();
    span.Add(SecondsSince(t0));
    return r;
  }
}

/// Per-layer accumulators filled by a traced replay.
struct Layers {
  Span route;  ///< RoutingScheme::SelectRoutes / SelectBackupFor
  /// SelectRoutes alone: the route part of admit. SelectBackupFor runs in
  /// failure_apply (step-4 re-protection).
  Span route_admit;
  std::map<std::string, Span> route_by_scheme;
  Span admit;          ///< core::AdmitConnection (route included)
  Span release;        ///< DrtpNetwork::ReleaseConnection
  Span publish;        ///< DrtpNetwork::PublishTo
  Span failure_eval;   ///< core::EvaluateAllSingleLinkFailures
  Span failure_apply;  ///< core::ApplyLinkFailure (with re-protection)
  Span repair;         ///< DrtpNetwork::SetLinkUp + scheme refresh
  std::int64_t admit_attempts = 0;
  std::int64_t admit_blocked = 0;

  /// Admission minus its route discovery: establish plus registration.
  Span AdmitSelf() const {
    Span s = admit;
    s.busy_s -= route_admit.busy_s;
    return s;
  }
  /// Failure handling minus its re-protection route discovery.
  Span FailureApplySelf() const {
    Span s = failure_apply;
    s.busy_s -= route.busy_s - route_admit.busy_s;
    return s;
  }

  /// Wall time of the layers that partition a replay's time (route is
  /// inside admit and failure_apply, so it is not added again).
  double TopLevelBusy() const {
    return admit.busy_s + release.busy_s + publish.busy_s +
           failure_eval.busy_s + failure_apply.busy_s + repair.busy_s;
  }
};

/// Ordered (name, value, unit) list; the harness prints it as JSON.
class MetricList {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  struct Item {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// What one workload run reports back to run.py.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Failed correctness gates, one line each; empty = correct.
  std::vector<std::string> gate_failures;
  MetricList metrics;
  /// Run metadata (seeds, sizes, transport, ...), as key/value text.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Human-readable per-layer table (traced runs).
  std::string table;

  void Gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  /// drtpd executable (daemon workload).
  std::string drtpd;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();
/// Bytes this process holds in malloc'd blocks (mallinfo2). Unlike the
/// resident set it also grows when freed pages are reused, so it shows
/// what live state costs after earlier work touched the heap.
std::int64_t HeapBytesInUse();

/// The host's speed, read from a fixed kernel of the benchmark's own: a
/// dependent walk through a 256 KiB random cycle, with integer mixing
/// that picks each next slot. The drtp code does not run in it, so a
/// change to the program does not move it; a slow or fast spell of the
/// host does. The sim workload times it between its cells and scales its
/// timings by kReferenceS / its median over the run, which takes out
/// spells that last a whole run (README, "Scaling to the reference host").
class HostSpeed {
 public:
  /// The kernel's time on the reference host, rounded: timings are
  /// reported as they would read there.
  static constexpr double kReferenceS = 0.005;

  HostSpeed();
  /// Times the kernel once.
  void Sample();
  /// Times the kernel until sampling has taken `share` of `elapsed_s`.
  /// Called between cells, this spreads the samples over the window.
  void SampleUpTo(double share, double elapsed_s);
  /// kReferenceS / the median kernel time: multiply a time by it, divide
  /// a rate by it.
  double Scale() const;
  double MedianS() const { return Median(samples_); }
  std::size_t samples() const { return samples_.size(); }

 private:
  std::vector<std::uint32_t> next_;
  std::vector<double> samples_;
  double spent_s_ = 0.0;
  std::uint64_t sink_ = 0;
};

/// splitmix64 step — derives independent sub-seeds from the run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt);

/// Renders the per-layer table, with each top-level layer's share of the
/// traced wall time.
std::string LayerTable(const std::string& title, const Layers& layers,
                       double traced_wall_s);

/// Adds the per-layer metrics every workload reports, from a traced
/// replay's layers and walls.
void PutLayerMetrics(Result& r, const Layers& layers, double traced_wall_s,
                     double untraced_wall_s);

Result RunSimPaper60(const Options& opts);
Result RunDaemon(const Options& opts);

}  // namespace drtpbench
