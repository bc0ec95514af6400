#include "bench_util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace drtpbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t HeapBytesInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

HostSpeed::HostSpeed() : next_(std::size_t{1} << 16) {
  // Sattolo's shuffle: one cycle through every slot, fixed seed.
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t state = 0;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    state = Mix(state, i);
    std::swap(next_[i], next_[state % i]);
  }
  Sample();  // warm the buffer; the first timing is kept out
  samples_.clear();
  spent_s_ = 0.0;
}

void HostSpeed::Sample() {
  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = 0;
  std::uint64_t acc = sink_;
  for (int step = 0; step < (1 << 19); ++step) {
    // The next slot depends on the mixing, so loads and arithmetic
    // alternate on one dependency chain.
    at = next_[at ^ static_cast<std::uint32_t>(acc & 1)];
    acc = (acc ^ at) * 0x9e3779b97f4a7c15ULL;
    acc ^= acc >> 29;
  }
  sink_ = acc;
  samples_.push_back(SecondsSince(t0));
  spent_s_ += samples_.back();
}

void HostSpeed::SampleUpTo(double share, double elapsed_s) {
  while (spent_s_ < share * elapsed_s) Sample();
}

double HostSpeed::Scale() const {
  return samples_.empty() ? 1.0 : kReferenceS / Median(samples_);
}

namespace {

void Row(std::string& out, const char* name, const Span& s, double wall) {
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %10lld %10.4f %11.2f %7.1f%%\n",
                name, static_cast<long long>(s.calls), s.busy_s, s.mean_us(),
                wall > 0 ? 100.0 * s.busy_s / wall : 0.0);
  out += line;
}

}  // namespace

std::string LayerTable(const std::string& title, const Layers& layers,
                       double traced_wall_s) {
  std::string out = title + "\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-24s %10s %10s %11s %8s\n", "layer",
                "calls", "busy_s", "mean_us", "of wall");
  out += line;
  Row(out, "lsdb.publish", layers.publish, traced_wall_s);
  Row(out, "drtp.route", layers.route, traced_wall_s);
  Row(out, "drtp.admit_self", layers.AdmitSelf(), traced_wall_s);
  Row(out, "drtp.release", layers.release, traced_wall_s);
  Row(out, "drtp.failure_eval", layers.failure_eval, traced_wall_s);
  Row(out, "drtp.failure_apply_self", layers.FailureApplySelf(),
      traced_wall_s);
  Row(out, "drtp.repair", layers.repair, traced_wall_s);
  Span rest;
  rest.busy_s = traced_wall_s - layers.TopLevelBusy();
  Row(out, "unattributed", rest, traced_wall_s);
  std::snprintf(line, sizeof line, "  %-24s %10s %10.4f\n", "traced wall", "",
                traced_wall_s);
  out += line;
  return out;
}

void PutLayerMetrics(Result& r, const Layers& layers, double traced_wall_s,
                     double untraced_wall_s) {
  MetricList& m = r.metrics;
  m.Put("drtp.route.calls", static_cast<double>(layers.route.calls), "count");
  m.Put("drtp.route.busy_s", layers.route.busy_s, "s");
  m.Put("drtp.route.mean_us", layers.route.mean_us(), "us");
  for (const char* scheme : {"D-LSR", "P-LSR", "BF"}) {
    const auto it = layers.route_by_scheme.find(scheme);
    m.Put(std::string("drtp.route.") + scheme + ".mean_us",
          it == layers.route_by_scheme.end() ? 0.0 : it->second.mean_us(),
          "us");
  }
  m.Put("drtp.admit.busy_s", layers.admit.busy_s, "s");
  m.Put("drtp.admit.mean_us", layers.admit.mean_us(), "us");
  m.Put("drtp.admit_self.busy_s", layers.AdmitSelf().busy_s, "s");
  m.Put("drtp.admit.block_ratio",
        layers.admit_attempts == 0
            ? 0.0
            : static_cast<double>(layers.admit_blocked) /
                  static_cast<double>(layers.admit_attempts),
        "ratio");
  m.Put("drtp.release.busy_s", layers.release.busy_s, "s");
  m.Put("drtp.release.mean_us", layers.release.mean_us(), "us");
  m.Put("lsdb.publish.calls", static_cast<double>(layers.publish.calls),
        "count");
  m.Put("lsdb.publish.busy_s", layers.publish.busy_s, "s");
  m.Put("lsdb.publish.mean_us", layers.publish.mean_us(), "us");
  m.Put("drtp.failure_eval.calls",
        static_cast<double>(layers.failure_eval.calls), "count");
  m.Put("drtp.failure_eval.busy_s", layers.failure_eval.busy_s, "s");
  m.Put("drtp.failure_eval.mean_ms", layers.failure_eval.mean_us() / 1e3,
        "ms");
  m.Put("drtp.failure_apply.mean_us", layers.failure_apply.mean_us(), "us");
  const double covered = layers.TopLevelBusy();
  m.Put("unattributed_s", traced_wall_s - covered, "s");
  m.Put("coverage_ratio", traced_wall_s > 0 ? covered / traced_wall_s : 0.0,
        "ratio");
  m.Put("trace_overhead_ratio",
        untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s : 0.0, "ratio");
}

}  // namespace drtpbench
