// Pieces shared by the traced replay of the simulator workload and of
// the daemon's WAL: a timing decorator for route discovery, and the
// end-of-run state checks every workload gates on.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "bench_util.h"
#include "drtp/network.h"
#include "drtp/scheme.h"

namespace drtpbench {

/// Times route discovery of the wrapped scheme into layers.route and the
/// per-scheme span, and SelectRoutes (the admission path) also into
/// layers.route_admit; forwards everything else unchanged.
class TimedScheme final : public drtp::core::RoutingScheme {
 public:
  TimedScheme(drtp::core::RoutingScheme& inner, Layers& layers)
      : inner_(inner),
        route_(layers.route),
        route_admit_(layers.route_admit),
        by_scheme_(layers.route_by_scheme[inner.name()]) {}

  std::string name() const override { return inner_.name(); }
  bool wants_backup() const override { return inner_.wants_backup(); }

  drtp::core::RouteSelection SelectRoutes(
      const drtp::core::DrtpNetwork& net, const drtp::lsdb::LinkStateDb& db,
      drtp::NodeId src, drtp::NodeId dst, drtp::Bandwidth bw) override {
    const Clock::time_point t0 = Clock::now();
    drtp::core::RouteSelection r = inner_.SelectRoutes(net, db, src, dst, bw);
    route_admit_.Add(Charge(t0));
    return r;
  }

  std::optional<drtp::routing::Path> SelectBackupFor(
      const drtp::core::DrtpNetwork& net, const drtp::lsdb::LinkStateDb& db,
      const drtp::routing::Path& primary, drtp::Bandwidth bw,
      std::span<const drtp::routing::Path> avoid) override {
    const Clock::time_point t0 = Clock::now();
    auto r = inner_.SelectBackupFor(net, db, primary, bw, avoid);
    Charge(t0);
    return r;
  }

  void OnTopologyChanged(const drtp::core::DrtpNetwork& net) override {
    inner_.OnTopologyChanged(net);
  }
  std::string SaveState() const override { return inner_.SaveState(); }
  void LoadState(const std::string& state) override {
    inner_.LoadState(state);
  }
  bool requires_srlg_disjoint_backup() const override {
    return inner_.requires_srlg_disjoint_backup();
  }

 private:
  double Charge(Clock::time_point t0) {
    const double s = SecondsSince(t0);
    route_.Add(s);
    by_scheme_.Add(s);
    return s;
  }

  drtp::core::RoutingScheme& inner_;
  Span& route_;
  Span& route_admit_;
  Span& by_scheme_;
};

/// DrtpNetwork::CheckConsistency plus a full fault::Auditor check.
/// Returns "" when both pass, else what failed.
std::string CheckState(const drtp::core::DrtpNetwork& net);

}  // namespace drtpbench
