// Experiment driver: replays a scenario against one routing scheme on a
// fresh copy of the network and collects RunMetrics.
//
// The driver owns the measurement protocol of §6: a warm-up period (the
// network fills toward steady state — lifetimes are 20–60 min, so warm-up
// spans multiple mean lifetimes), then a measurement window in which the
// active-connection count is integrated and P_bk is sampled by what-if
// failing every link at regular instants.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "drtp/failure.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace drtp::sim {

struct ExperimentConfig {
  /// Measurement starts here; must be < scenario duration.
  Time warmup = 4000.0;
  /// P_bk / bandwidth sampling cadence inside the window.
  Time sample_interval = 200.0;
  /// 0 = advertise instantly after every change (the paper's assumption);
  /// > 0 = periodic advertisement, modelling link-state staleness.
  Time lsdb_refresh_interval = 0.0;
  /// Spare provisioning mode (kDedicated for ablation X3).
  core::SpareMode spare_mode = core::SpareMode::kMultiplexed;
  /// Backups per connection (§2 allows "one or more"); extras beyond the
  /// scheme's own selection come from SelectBackupFor with the existing
  /// backups shunned. 0 disables protection even for protecting schemes.
  int num_backups = 1;
  /// Run DrtpNetwork::CheckConsistency at every sample (slow; tests only).
  bool check_consistency = false;
  /// Bounded re-protection for connections that degraded to *unprotected*
  /// (step 4 found no feasible backup): number of jittered
  /// exponential-backoff retries before giving up. 0 leaves degraded
  /// connections exposed until another failure's step 4 covers them.
  int reprotect_max_retries = 6;
  /// Nominal delay before the first re-protection retry; doubles per
  /// attempt and is jittered uniformly in [0.5, 1.5) of nominal.
  Time reprotect_backoff = 5.0;
  /// Jitter seed; combined with the scenario's traffic seed so replays
  /// stay deterministic while distinct cells decorrelate.
  std::uint64_t reprotect_seed = 0x5eedf00dULL;
  /// Invoked after every enacted replay event (and every re-protection
  /// retry) with the network, the simulation time, a short event label
  /// ("link_fail", "node_repair", "reprotect_retry", ...), and — for
  /// failure events — the switchover report (else null). This is the
  /// fault::Auditor hook; null = disabled.
  std::function<void(const core::DrtpNetwork&, Time, std::string_view,
                     const core::SwitchoverReport*)>
      after_event;
  /// Invoked once with the network state at the end of the measurement
  /// window (before trailing releases drain it) — audits, custom metrics.
  /// Null = disabled.
  std::function<void(const core::DrtpNetwork&)> inspect_final;
  /// Receives one obs::TraceEvent per replay event (admissions, blocks,
  /// releases, failures), stamped with scheme.name() and trace_cell; not
  /// owned. Null = tracing off.
  obs::TraceSink* trace = nullptr;
  /// Sweep-cell index stamped on every trace record; -1 for single runs.
  std::int64_t trace_cell = -1;
};

/// Replays `scenario` on a fresh DrtpNetwork over `topo` using `scheme`.
/// Deterministic: same inputs, same metrics.
RunMetrics RunScenario(const net::Topology& topo, const Scenario& scenario,
                       core::RoutingScheme& scheme,
                       const ExperimentConfig& config);

}  // namespace drtp::sim
