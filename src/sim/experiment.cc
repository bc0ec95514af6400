#include "sim/experiment.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "drtp/admission.h"
#include "drtp/failure.h"
#include "obs/metrics.h"

namespace drtp::sim {
namespace {

/// Process-wide lifecycle counters (drtp.sim.*), resolved once. These
/// feed the sweep ProgressReporter's live readout and per-cell snapshot
/// tags; under DRTP_OBS_DISABLED every Add is a no-op.
struct SimCounters {
  obs::Counter requests = obs::GetCounter("drtp.sim.requests");
  obs::Counter admits = obs::GetCounter("drtp.sim.admits");
  obs::Counter blocks = obs::GetCounter("drtp.sim.blocks");
  obs::Counter releases = obs::GetCounter("drtp.sim.releases");
  obs::Counter link_fails = obs::GetCounter("drtp.sim.link_fails");
  obs::Counter link_repairs = obs::GetCounter("drtp.sim.link_repairs");
  obs::Counter failovers = obs::GetCounter("drtp.sim.failovers");
  obs::Counter drops = obs::GetCounter("drtp.sim.drops");
  obs::Counter backup_breaks = obs::GetCounter("drtp.sim.backup_breaks");
  obs::Counter reestablishes =
      obs::GetCounter("drtp.sim.backups_reestablished");
  obs::Counter node_fails = obs::GetCounter("drtp.sim.node_fails");
  obs::Counter node_repairs = obs::GetCounter("drtp.sim.node_repairs");
  obs::Counter srlg_fails = obs::GetCounter("drtp.sim.srlg_fails");
  obs::Counter srlg_repairs = obs::GetCounter("drtp.sim.srlg_repairs");
  obs::Counter degraded = obs::GetCounter("drtp.sim.degraded");
  obs::Counter reprotect_retries =
      obs::GetCounter("drtp.sim.reprotect_retries");
  obs::Counter reprotects = obs::GetCounter("drtp.sim.reprotects");
};

const SimCounters& Counters() {
  static const SimCounters counters;
  return counters;
}

/// The trace record kind of a scenario event. Its TraceEventKindName is
/// also the event's after_event label.
obs::TraceEventKind TraceKindOf(ScenarioEvent::Type type) {
  using K = obs::TraceEventKind;
  switch (type) {
    case ScenarioEvent::Type::kRequest:
      return K::kRequest;
    case ScenarioEvent::Type::kRelease:
      return K::kRelease;
    case ScenarioEvent::Type::kLinkFail:
      return K::kLinkFail;
    case ScenarioEvent::Type::kLinkRepair:
      return K::kLinkRepair;
    case ScenarioEvent::Type::kNodeFail:
      return K::kNodeFail;
    case ScenarioEvent::Type::kNodeRepair:
      return K::kNodeRepair;
    case ScenarioEvent::Type::kSrlgFail:
      return K::kSrlgFail;
    case ScenarioEvent::Type::kSrlgRepair:
      return K::kSrlgRepair;
  }
  return K::kRequest;
}

/// The network element a fault event names.
enum class Element { kLink, kNode, kSrlg };

/// A fault event as RunScenario enacts it: the element it fails or
/// repairs, and the obs counter it bumps.
struct Fault {
  Element element;
  std::int32_t id;  // link, node or group id
  bool fail;        // false: a repair
  obs::Counter SimCounters::*counter;
};

Fault FaultOf(const ScenarioEvent& e) {
  using T = ScenarioEvent::Type;
  switch (e.type) {
    case T::kLinkFail:
      return {Element::kLink, e.link, true, &SimCounters::link_fails};
    case T::kLinkRepair:
      return {Element::kLink, e.link, false, &SimCounters::link_repairs};
    case T::kNodeFail:
      return {Element::kNode, e.node, true, &SimCounters::node_fails};
    case T::kNodeRepair:
      return {Element::kNode, e.node, false, &SimCounters::node_repairs};
    case T::kSrlgFail:
      return {Element::kSrlg, e.srlg, true, &SimCounters::srlg_fails};
    case T::kSrlgRepair:
      return {Element::kSrlg, e.srlg, false, &SimCounters::srlg_repairs};
    case T::kRequest:
    case T::kRelease:
      break;
  }
  DRTP_CHECK_MSG(false, "not a fault event");
  return {};
}

/// The links `element` `id` spans: the link itself, a node's incident
/// links, or a risk group's members.
std::vector<LinkId> ElementLinks(const net::Topology& topo, Element element,
                                 std::int32_t id) {
  switch (element) {
    case Element::kLink:
      return {id};
    case Element::kNode:
      return core::IncidentLinks(topo, id);
    case Element::kSrlg:
      break;
  }
  const auto members = topo.LinksInSrlg(id);
  return {members.begin(), members.end()};
}

}  // namespace

RunMetrics RunScenario(const net::Topology& topo, const Scenario& scenario,
                       core::RoutingScheme& scheme,
                       const ExperimentConfig& config) {
  const Time duration = scenario.traffic.duration;
  DRTP_CHECK_MSG(config.warmup < duration,
                 "warmup " << config.warmup << " >= duration " << duration);
  DRTP_CHECK(config.sample_interval > 0.0);
  // Reject scenario/topology mismatches (a trace generated for a bigger
  // graph, an SRLG id past this topology's groups) as ParseError up front
  // — bad input, not a mid-replay invariant trip.
  scenario.Validate(topo);

  core::DrtpNetwork net(topo, core::NetworkConfig{
                                  .spare_mode = config.spare_mode,
                                  .duplex_failures = false});
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());

  RunMetrics m;
  m.scheme = scheme.name();
  m.measure_start = config.warmup;
  m.measure_end = duration;

  const bool instant = config.lsdb_refresh_interval <= 0.0;
  net.PublishTo(db, 0.0);
  Time next_refresh = instant ? kTimeInfinity : config.lsdb_refresh_interval;

  // Time-weighted active-connection count over the measurement window.
  TimeWeightedStat window;
  int active_count = 0;
  const auto note_active = [&](Time t, int count) {
    // The measurement window is [warmup, duration]; trailing releases
    // beyond the horizon no longer affect the average.
    const Time clamped = std::min(t, duration);
    if (clamped >= config.warmup) {
      if (!window.started()) window.Set(config.warmup, active_count);
      window.Set(clamped, count);
    }
    active_count = count;
  };

  Time next_sample = config.warmup;
  const auto sample = [&](Time t) {
    m.pbk.Merge(core::EvaluateAllSingleLinkFailures(net));
    if (topo.has_srlgs()) m.pbk_srlg.Merge(core::EvaluateSrlgSurvival(net));
    m.prime_bw.Add(static_cast<double>(net.ledger().TotalPrime()));
    m.spare_bw.Add(static_cast<double>(net.ledger().TotalSpare()));
    if (config.check_consistency) net.CheckConsistency();
    (void)t;
  };

  std::unordered_set<ConnId> admitted_ids;

  // Trace records, built only when config.trace is set. `stamp` starts a
  // record with its time, kind, cell and scheme (m.scheme, the one
  // scheme.name() call); `with_backup` attaches a backup route and the
  // post-event APLV maxima on its links; `with_impact` attaches a
  // failure's aggregate counts. The spans point into the network's path
  // storage and aplv_scratch, valid through the Write() call.
  const auto stamp = [&](Time t, obs::TraceEventKind kind) {
    obs::TraceEvent ev;
    ev.t = t;
    ev.kind = kind;
    ev.cell = config.trace_cell;
    ev.scheme = m.scheme;
    return ev;
  };
  std::vector<std::pair<LinkId, std::int32_t>> aplv_scratch;
  const auto with_backup = [&](obs::TraceEvent& ev, const routing::Path& b) {
    aplv_scratch.clear();
    for (const LinkId l : b.links()) {
      aplv_scratch.emplace_back(l, net.aplv(l).Max());
    }
    ev.backup = b.nodes();
    ev.aplv = aplv_scratch;
  };
  const auto with_impact = [](obs::TraceEvent& ev,
                              const core::SwitchoverReport& report) {
    ev.recovered = static_cast<int>(report.recovered.size());
    ev.dropped = static_cast<int>(report.dropped.size());
    ev.broken = static_cast<int>(report.backups_lost.size());
  };

  // inspect_final fires once the clock passes the horizon, i.e. on the
  // loaded steady-state network rather than the drained one.
  bool inspected = false;
  const auto maybe_inspect = [&](Time t) {
    if (!inspected && t > duration && config.inspect_final) {
      config.inspect_final(net);
      inspected = true;
    }
  };

  const bool protecting = scheme.wants_backup() && config.num_backups > 0;
  core::RoutingScheme* reroute =
      config.num_backups > 0 ? &scheme : nullptr;

  // --- graceful degradation: bounded jittered-backoff re-protection --------
  // Connections whose step-4 re-protection found no feasible backup keep
  // running *unprotected* and retry with exponential backoff; the jitter
  // decorrelates retries after a burst without losing determinism.
  Rng reprotect_rng(config.reprotect_seed ^ scenario.traffic.seed);
  struct Reprotect {
    Time at = 0.0;
    std::int64_t seq = 0;  // FIFO tie-break at equal times
    ConnId conn = kInvalidConn;
    int attempt = 1;
  };
  const auto retry_after = [](const Reprotect& a, const Reprotect& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  };
  std::vector<Reprotect> retries;  // min-heap on (at, seq)
  std::int64_t retry_seq = 0;
  // Connections currently degraded (admitted, protection wanted, no
  // backup). Guards against double-counting when overlapping failures hit
  // the same connection again while it is still exposed.
  std::unordered_set<ConnId> degraded_pending;

  const auto schedule_retry = [&](ConnId id, int attempt, Time from) {
    retries.push_back(Reprotect{
        .at = from + JitteredBackoff(reprotect_rng, config.reprotect_backoff,
                                     attempt - 1),
        .seq = retry_seq++,
        .conn = id,
        .attempt = attempt});
    std::push_heap(retries.begin(), retries.end(), retry_after);
  };

  const auto handle_retry = [&](const Reprotect& r) {
    const core::DrConnection* conn = net.Find(r.conn);
    if (conn == nullptr || conn->has_backup()) {
      // Released, dropped, or re-protected by a later failure's step 4.
      degraded_pending.erase(r.conn);
      return;
    }
    ++m.reprotect_retries;
    Counters().reprotect_retries.Add();
    if (const auto overbooked =
            core::Reprotect(net, db, scheme, r.conn, r.at)) {
      m.overbooked_hops += *overbooked;
      ++m.reprotect_recovered;
      Counters().reprotects.Add();
      degraded_pending.erase(r.conn);
      if (config.trace != nullptr) {
        obs::TraceEvent ev = stamp(r.at, obs::TraceEventKind::kReestablish);
        ev.conn = r.conn;
        with_backup(ev, *net.Find(r.conn)->first_backup());
        config.trace->Write(ev);
      }
    } else if (r.attempt < config.reprotect_max_retries) {
      schedule_retry(r.conn, r.attempt + 1, r.at);
    } else {
      ++m.reprotect_exhausted;
      degraded_pending.erase(r.conn);
    }
    if (config.after_event) {
      config.after_event(net, r.at, "reprotect_retry", nullptr);
    }
  };

  // Marks every connection the failure left admitted-but-unprotected and
  // schedules its first re-protection retry.
  const auto mark_degraded = [&](Time t,
                                 const core::SwitchoverReport& report) {
    if (!protecting) return;
    for (const std::vector<ConnId>* ids :
         {&report.recovered, &report.backups_lost}) {
      for (const ConnId id : *ids) {
        const core::DrConnection* conn = net.Find(id);
        if (conn == nullptr || conn->has_backup()) continue;
        if (!degraded_pending.insert(id).second) continue;
        ++m.degraded;
        Counters().degraded.Add();
        if (config.trace != nullptr) {
          obs::TraceEvent ev = stamp(t, obs::TraceEventKind::kDegrade);
          ev.conn = id;
          ev.retries_left = config.reprotect_max_retries;
          config.trace->Write(ev);
        }
        if (config.reprotect_max_retries > 0) {
          schedule_retry(id, 1, t);
        }
      }
    }
  };

  // Shared failure bookkeeping: metrics, counters, per-connection trace
  // fan-out, degradation marking, scheme + LSDB refresh. The caller has
  // already emitted the aggregate trace line for its failure kind.
  const auto fanout_failure = [&](Time t,
                                  const core::SwitchoverReport& report) {
    m.failover_recovered +=
        static_cast<std::int64_t>(report.recovered.size());
    m.failover_dropped += static_cast<std::int64_t>(report.dropped.size());
    m.backups_broken +=
        static_cast<std::int64_t>(report.backups_lost.size());
    m.backups_reestablished +=
        static_cast<std::int64_t>(report.rerouted.size());
    for (const ConnId id : report.dropped) {
      admitted_ids.erase(id);
      degraded_pending.erase(id);
    }
    for (const ConnId id : report.rerouted) degraded_pending.erase(id);
    note_active(t, net.ActiveCount());
    Counters().failovers.Add(
        static_cast<std::int64_t>(report.recovered.size()));
    Counters().drops.Add(static_cast<std::int64_t>(report.dropped.size()));
    Counters().backup_breaks.Add(
        static_cast<std::int64_t>(report.backups_lost.size()));
    Counters().reestablishes.Add(
        static_cast<std::int64_t>(report.rerouted.size()));
    if (config.trace != nullptr) {
      // Per-connection consequences, in the report's (deterministic)
      // order, following the aggregate line. A failover record carries
      // the promoted backup as the connection's new primary.
      for (const ConnId id : report.recovered) {
        const core::DrConnection* conn = net.Find(id);
        if (conn != nullptr) {
          obs::TraceEvent ev = stamp(t, obs::TraceEventKind::kFailover);
          ev.conn = id;
          ev.primary = conn->primary.nodes();
          config.trace->Write(ev);
        }
      }
      for (const ConnId id : report.dropped) {
        obs::TraceEvent ev = stamp(t, obs::TraceEventKind::kDrop);
        ev.conn = id;
        config.trace->Write(ev);
      }
      for (const ConnId id : report.backups_lost) {
        obs::TraceEvent ev = stamp(t, obs::TraceEventKind::kBackupBreak);
        ev.conn = id;
        config.trace->Write(ev);
      }
      for (const ConnId id : report.rerouted) {
        const core::DrConnection* conn = net.Find(id);
        const routing::Path* backup =
            conn != nullptr ? conn->first_backup() : nullptr;
        if (backup != nullptr) {
          obs::TraceEvent ev = stamp(t, obs::TraceEventKind::kReestablish);
          ev.conn = id;
          with_backup(ev, *backup);
          config.trace->Write(ev);
        }
      }
    }
    mark_degraded(t, report);
    // A reroute scheme already saw the failure inside ApplyLinkSetFailure.
    if (reroute == nullptr) scheme.OnTopologyChanged(net);
    if (instant) net.PublishTo(db, t);
  };

  // Links taken down by an enacted node / SRLG failure, keyed by element
  // and id, so the matching repair restores exactly that set (members
  // already down beforehand — e.g. from an overlapping link failure — keep
  // their own repair event). A link repair restores its link
  // unconditionally.
  std::map<std::pair<Element, std::int32_t>, std::vector<LinkId>> downed;

  // Restores whichever of `links` are still down; true if any came up.
  const auto repair_links = [&](std::span<const LinkId> links) {
    bool any = false;
    for (const LinkId l : links) {
      if (!net.IsLinkUp(l)) {
        net.SetLinkUp(l);
        any = true;
      }
    }
    return any;
  };

  // Interleaves P_bk samples and due re-protection retries in time order
  // up to `t`.
  const auto run_due = [&](Time t) {
    while (true) {
      const Time ts = next_sample <= duration ? next_sample : kTimeInfinity;
      const Time tr = retries.empty() ? kTimeInfinity : retries.front().at;
      if (ts > t && tr > t) break;
      if (tr <= ts) {
        std::pop_heap(retries.begin(), retries.end(), retry_after);
        const Reprotect r = retries.back();
        retries.pop_back();
        handle_retry(r);
      } else {
        sample(next_sample);
        next_sample += config.sample_interval;
      }
    }
  };

  for (const ScenarioEvent& e : scenario.events) {
    maybe_inspect(e.time);
    run_due(e.time);
    while (next_refresh <= e.time) {
      // The periodic refresh is a full re-advertisement by construction
      // (the paper's refresh cycle re-floods everything), and doubles as
      // the incremental path's safety net.
      net.PublishFullTo(db, next_refresh);
      next_refresh += config.lsdb_refresh_interval;
    }

    // Non-null for enacted failures when after_event fires below.
    std::optional<core::SwitchoverReport> event_report;

    if (e.type == ScenarioEvent::Type::kRequest) {
      ++m.requests;
      Counters().requests.Add();
      if (config.trace != nullptr) {
        obs::TraceEvent ev = stamp(e.time, obs::TraceEventKind::kRequest);
        ev.conn = e.conn;
        ev.src = e.src;
        ev.dst = e.dst;
        ev.bw = e.bw;
        config.trace->Write(ev);
      }
      // The admission sequence itself (route discovery, establishment,
      // vacuous-backup shun, backup registration) lives in
      // core::AdmitConnection, shared with the daemon so that replaying a
      // daemon request log here reproduces the same state.
      const core::AdmitOutcome out = core::AdmitConnection(
          scheme, net, db, e.conn, e.src, e.dst, e.bw, e.time,
          core::AdmitOptions{.num_backups = config.num_backups});
      m.control_messages += out.control_messages;
      m.control_bytes += out.control_bytes;
      if (out.admitted) {
        ++m.admitted;
        admitted_ids.insert(e.conn);
        m.primary_hops.Add(out.primary->hops());
        if (out.backup.has_value()) {
          m.overbooked_hops += out.overbooked_hops;
          ++m.with_backup;
          m.backup_hops.Add(out.backup->hops());
          m.backup_overlap_links += out.backup->OverlapCount(*out.primary);
        }
        note_active(e.time, active_count + 1);
        Counters().admits.Add();
        if (config.trace != nullptr) {
          const core::DrConnection* conn = net.Find(e.conn);
          obs::TraceEvent ev = stamp(e.time, obs::TraceEventKind::kAdmit);
          ev.conn = e.conn;
          ev.src = e.src;
          ev.dst = e.dst;
          ev.bw = e.bw;
          ev.primary = conn->primary.nodes();
          const routing::Path* backup = conn->first_backup();
          if (backup != nullptr) with_backup(ev, *backup);
          config.trace->Write(ev);
        }
        if (instant) net.PublishTo(db, e.time);
      } else {
        ++m.blocked;
        Counters().blocks.Add();
        if (config.trace != nullptr) {
          obs::TraceEvent ev = stamp(e.time, obs::TraceEventKind::kBlock);
          ev.conn = e.conn;
          ev.src = e.src;
          ev.dst = e.dst;
          config.trace->Write(ev);
        }
      }
    } else if (e.type == ScenarioEvent::Type::kRelease) {
      // Releases of never-admitted (blocked) connections are no-ops;
      // connections dropped by an earlier failure were already erased.
      if (admitted_ids.erase(e.conn) > 0 && net.Find(e.conn) != nullptr) {
        net.ReleaseConnection(e.conn);
        note_active(e.time, active_count - 1);
        Counters().releases.Add();
        if (config.trace != nullptr) {
          obs::TraceEvent ev = stamp(e.time, obs::TraceEventKind::kRelease);
          ev.conn = e.conn;
          config.trace->Write(ev);
        }
        if (instant) net.PublishTo(db, e.time);
      }
    } else {
      // A link, node or SRLG fault; scenario.Validate range-checked its id.
      const Fault fault = FaultOf(e);
      const auto trace_fault = [&](const core::SwitchoverReport* report) {
        obs::TraceEvent ev = stamp(e.time, TraceKindOf(e.type));
        switch (fault.element) {
          case Element::kLink: ev.link = fault.id; break;
          case Element::kNode: ev.node = fault.id; break;
          case Element::kSrlg: ev.srlg = fault.id; break;
        }
        if (report != nullptr) with_impact(ev, *report);
        config.trace->Write(ev);
      };
      if (fault.fail) {
        std::vector<LinkId> taking_down = core::FailedLinkSet(
            net, ElementLinks(topo, fault.element, fault.id));
        if (!taking_down.empty()) {
          ++m.failures_enacted;
          event_report = core::ApplyLinkSetFailure(net, taking_down, e.time,
                                                   reroute, &db);
          (Counters().*fault.counter).Add();
          if (config.trace != nullptr) trace_fault(&*event_report);
          fanout_failure(e.time, *event_report);
          if (fault.element != Element::kLink) {
            downed[{fault.element, fault.id}] = std::move(taking_down);
          }
        }
      } else {
        std::vector<LinkId> restoring;
        if (fault.element == Element::kLink) {
          restoring = {fault.id};
        } else if (auto entry = downed.extract({fault.element, fault.id})) {
          restoring = std::move(entry.mapped());
        }
        if (repair_links(restoring)) {
          (Counters().*fault.counter).Add();
          scheme.OnTopologyChanged(net);
          if (config.trace != nullptr) trace_fault(nullptr);
          if (instant) net.PublishTo(db, e.time);
        }
      }
    }

    if (config.after_event) {
      config.after_event(net, e.time,
                         obs::TraceEventKindName(TraceKindOf(e.type)),
                         event_report.has_value() ? &*event_report
                                                  : nullptr);
    }
  }
  // Drain trailing samples and any retries scheduled before the horizon.
  run_due(duration);
  if (!window.started()) window.Set(config.warmup, active_count);
  m.avg_active = window.Average(duration);
  if (config.after_event) {
    config.after_event(net, duration, "final", nullptr);
  }

  DRTP_CHECK(m.admitted + m.blocked == m.requests);
  if (config.check_consistency) net.CheckConsistency();
  if (!inspected && config.inspect_final) config.inspect_final(net);
  return m;
}

}  // namespace drtp::sim
