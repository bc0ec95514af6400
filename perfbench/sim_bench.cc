// The simulator workload sim-paper60: the paper's Fig. 4/5 grid on its
// 60-node Waxman networks.
//
// Untraced runs call sim::RunScenario exactly as fig4/drtpsweep do. Traced
// runs additionally replay the same scenario through the public calls
// RunScenario makes — LSDB publish, core::AdmitConnection with the scheme
// wrapped in a timing decorator, ReleaseConnection and
// core::EvaluateAllSingleLinkFailures — timing each call from here, and
// require the replay to reproduce RunScenario's counts, P_bk and final
// state digest.
//
// A run repeats every cell (topology degree × pattern × λ × scheme), with
// the same inputs each time, until the window is used up. Timings are
// reported per cell type as the median over its repeats, so a short slow
// spell of the host inflates a repeat, not the result. A HostSpeed
// kernel timed between the cells takes out the spells that last a whole
// run.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/digest.h"
#include "drtp/admission.h"
#include "drtp/failure.h"
#include "replay.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/scenario.h"
#include "svc/engine.h"

namespace drtpbench {

using namespace drtp;

namespace {

/// End-of-window state and its correctness checks, taken through
/// ExperimentConfig::inspect_final. The checks run inside the replay but
/// their time is subtracted from the measured wall time.
struct FinalState {
  bool seen = false;
  std::uint64_t digest = 0;
  int active = 0;
  std::int64_t heap_bytes = 0;
  std::string error;
  /// A what-if evaluation of every single-link failure (a P_bk sample)
  /// on this state: the median of up to five timings, fewer once they
  /// pass 50 ms; < 0 when not taken.
  double eval_s = -1.0;
  double check_s = 0.0;
};

void InspectFinal(FinalState& fs, const core::DrtpNetwork& net,
                  bool time_eval) {
  const Clock::time_point t0 = Clock::now();
  fs.seen = true;
  fs.heap_bytes = HeapBytesInUse();
  fs.digest = svc::NetworkStateDigest(net);
  fs.active = net.ActiveCount();
  fs.error = CheckState(net);
  if (time_eval) {
    std::vector<double> evals;
    double spent = 0.0;
    while (evals.size() < 5 && spent < 0.05) {
      const Clock::time_point e0 = Clock::now();
      (void)core::EvaluateAllSingleLinkFailures(net);
      evals.push_back(SecondsSince(e0));
      spent += evals.back();
    }
    fs.eval_s = Median(evals);
  }
  fs.check_s += SecondsSince(t0);
}

/// One sim::RunScenario call.
struct CellRun {
  sim::RunMetrics metrics;
  FinalState final;
  double wall_s = 0.0;  ///< excludes the final-state checks
};

CellRun RunCell(const net::Topology& topo, const sim::Scenario& scenario,
                core::RoutingScheme& scheme, sim::ExperimentConfig config) {
  CellRun run;
  config.inspect_final = [&run](const core::DrtpNetwork& net) {
    InspectFinal(run.final, net, /*time_eval=*/true);
  };
  const Clock::time_point t0 = Clock::now();
  run.metrics = sim::RunScenario(topo, scenario, scheme, config);
  run.wall_s = SecondsSince(t0) - run.final.check_s;
  return run;
}

struct ReplayOutcome {
  std::int64_t admitted = 0;
  std::int64_t blocked = 0;
  Ratio pbk;
  FinalState final;
  std::int64_t heap_start_bytes = 0;
  double wall_s = 0.0;  ///< excludes the final-state checks
};

/// RunScenario's event loop for request/release scenarios (no enacted
/// faults, instant advertisement, one backup), with every layer call
/// timed into `layers`.
ReplayOutcome TracedReplay(const net::Topology& topo,
                           const sim::Scenario& scenario,
                           core::RoutingScheme& inner,
                           const sim::ExperimentConfig& config,
                           Layers& layers) {
  DRTP_CHECK(config.lsdb_refresh_interval <= 0.0 && config.num_backups == 1);
  for (const sim::ScenarioEvent& e : scenario.events) {
    DRTP_CHECK(e.type == sim::ScenarioEvent::Type::kRequest ||
               e.type == sim::ScenarioEvent::Type::kRelease);
  }
  ReplayOutcome out;
  TimedScheme scheme(inner, layers);
  const Time duration = scenario.traffic.duration;
  const Clock::time_point t0 = Clock::now();

  core::DrtpNetwork net(topo, core::NetworkConfig{
                                  .spare_mode = config.spare_mode,
                                  .duplex_failures = false});
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  out.heap_start_bytes = HeapBytesInUse();
  Timed(layers.publish, [&] { net.PublishTo(db, 0.0); });

  Time next_sample = config.warmup;
  const auto sample_until = [&](Time t) {
    while (next_sample <= duration && next_sample <= t) {
      out.pbk.Merge(Timed(layers.failure_eval, [&] {
        return core::EvaluateAllSingleLinkFailures(net);
      }));
      next_sample += config.sample_interval;
    }
  };
  std::unordered_set<ConnId> admitted_ids;
  for (const sim::ScenarioEvent& e : scenario.events) {
    if (!out.final.seen && e.time > duration) {
      InspectFinal(out.final, net, /*time_eval=*/false);
    }
    sample_until(e.time);
    if (e.type == sim::ScenarioEvent::Type::kRequest) {
      ++layers.admit_attempts;
      const core::AdmitOutcome a = Timed(layers.admit, [&] {
        return core::AdmitConnection(scheme, net, db, e.conn, e.src, e.dst,
                                     e.bw, e.time,
                                     core::AdmitOptions{.num_backups = 1});
      });
      if (a.admitted) {
        ++out.admitted;
        admitted_ids.insert(e.conn);
        Timed(layers.publish, [&] { net.PublishTo(db, e.time); });
      } else {
        ++out.blocked;
        ++layers.admit_blocked;
      }
    } else if (admitted_ids.erase(e.conn) > 0 &&
               net.Find(e.conn) != nullptr) {
      Timed(layers.release, [&] { net.ReleaseConnection(e.conn); });
      Timed(layers.publish, [&] { net.PublishTo(db, e.time); });
    }
  }
  sample_until(duration);
  if (!out.final.seen) InspectFinal(out.final, net, /*time_eval=*/false);
  out.wall_s = SecondsSince(t0) - out.final.check_s;
  return out;
}

/// The sim workload's gates: the final state is consistent and
/// audit-clean, and (traced runs) the replay matches RunScenario.
void GateCell(Result& r, const std::string& label, const CellRun& run,
              const ReplayOutcome* replay) {
  r.Gate(run.final.seen, label + ": inspect_final never ran");
  r.Gate(run.final.error.empty(), label + ": " + run.final.error);
  r.Gate(run.metrics.admitted + run.metrics.blocked == run.metrics.requests,
         label + ": admitted + blocked != requests");
  if (replay == nullptr) return;
  r.Gate(replay->final.error.empty(),
         label + ": replay " + replay->final.error);
  r.Gate(replay->admitted == run.metrics.admitted &&
             replay->blocked == run.metrics.blocked,
         label + ": traced replay admitted/blocked " +
             std::to_string(replay->admitted) + "/" +
             std::to_string(replay->blocked) + " != RunScenario " +
             std::to_string(run.metrics.admitted) + "/" +
             std::to_string(run.metrics.blocked));
  r.Gate(replay->pbk.hits == run.metrics.pbk.hits &&
             replay->pbk.trials == run.metrics.pbk.trials,
         label + ": traced replay P_bk differs from RunScenario");
  r.Gate(replay->final.digest == run.final.digest,
         label + ": traced replay digest " + DigestHex(replay->final.digest) +
             " != RunScenario " + DigestHex(run.final.digest));
}

/// Accumulates the sim workload's untraced and traced measurements.
class SimTotals {
 public:
  /// Runs one cell of type `type` (and its traced replay when tracing)
  /// and applies the gates. `make_scheme` builds a fresh scheme for the
  /// replay.
  void Cell(Result& r, const Options& opts, const std::string& type,
            const std::string& label, const net::Topology& topo,
            const sim::Scenario& scenario, core::RoutingScheme& scheme,
            const std::function<std::unique_ptr<core::RoutingScheme>()>&
                make_scheme,
            const sim::ExperimentConfig& config) {
    const CellRun run = RunCell(topo, scenario, scheme, config);
    const auto events = static_cast<double>(scenario.events.size());
    events_ += static_cast<std::int64_t>(scenario.events.size());
    ++cells_;
    Repeats& rep = by_type_[type];
    rep.events.push_back(events);
    rep.rate.push_back(events / run.wall_s);
    rep.wall_s.push_back(run.wall_s);
    rep.eval_s.push_back(run.final.eval_s);
    if (!opts.trace) {
      GateCell(r, label, run, nullptr);
      return;
    }
    const std::unique_ptr<core::RoutingScheme> fresh = make_scheme();
    const ReplayOutcome replay =
        TracedReplay(topo, scenario, *fresh, config, layers_);
    replay_s_ += replay.wall_s;
    untraced_s_ += run.wall_s;
    heap_growth_bytes_ += std::max<std::int64_t>(
        0, replay.final.heap_bytes - replay.heap_start_bytes);
    live_at_final_ += replay.final.active;
    GateCell(r, label, run, &replay);
  }

  void Setup(double total_s, double topology_s, double scenario_s) {
    setup_s_.push_back(total_s);
    topology_s_.push_back(topology_s);
    scenario_s_.push_back(scenario_s);
  }

  void Report(Result& r, const Options& opts, const std::string& title,
              const HostSpeed& host) {
    r.attempted = events_;
    r.failed = r.gate_failures.empty() ? 0 : events_;
    r.meta.push_back({"cells", std::to_string(cells_)});
    r.meta.push_back({"cell_types", std::to_string(by_type_.size())});
    r.meta.push_back({"events", std::to_string(events_)});
    MetricList& m = r.metrics;
    if (!opts.trace) {
      // Per cell type: median rate, wall and failure-evaluation time
      // over its repeats. The workload rate weights each type by its
      // event count.
      double events = 0.0;
      double seconds = 0.0;
      std::vector<double> walls_us;
      std::vector<double> evals_us;
      for (const auto& [type, rep] : by_type_) {
        const double e = Median(rep.events);
        events += e;
        seconds += e / Median(rep.rate);
        walls_us.push_back(Median(rep.wall_s) * 1e6);
        evals_us.push_back(Median(rep.eval_s) * 1e6);
      }
      // The timings of RunScenario are scaled to the reference host's
      // speed; the meta line keeps them as taken. Set-up is mostly
      // allocation and page faults, which the host kernel does not
      // track, so setup_s is reported as taken.
      const double scale = host.Scale();
      const double rate = events / seconds;
      const double wall_us = Percentile(walls_us, 0.50);
      const double eval_us = Percentile(evals_us, 0.50);
      m.Put("setup_s", Median(setup_s_), "s");
      m.Put("events_per_s", rate / scale, "1/s");
      m.Put("latency_p50_us", wall_us * scale, "us");
      m.Put("failover_p50_us", eval_us * scale, "us");
      r.meta.insert(
          r.meta.end(),
          {{"host_kernel_ms", std::to_string(host.MedianS() * 1e3)},
           {"host_kernel_samples", std::to_string(host.samples())},
           {"host_scale", std::to_string(scale)},
           {"unscaled_events_per_s", std::to_string(rate)},
           {"unscaled_latency_p50_us", std::to_string(wall_us)},
           {"unscaled_failover_p50_us", std::to_string(eval_us)}});
      m.Put("peak_rss_mb", PeakRssMb(), "MB");
      m.Put("ok_ratio",
            static_cast<double>(events_ - r.failed) /
                static_cast<double>(std::max<std::int64_t>(1, events_)),
            "ratio");
      return;
    }
    PutLayerMetrics(r, layers_, replay_s_, untraced_s_);
    m.Put("drtp.bytes_per_conn",
          live_at_final_ > 0
              ? static_cast<double>(heap_growth_bytes_) / live_at_final_
              : 0.0,
          "bytes");
    m.Put("net.topology_build_s", Median(topology_s_), "s");
    m.Put("sim.scenario_gen_s", Median(scenario_s_), "s");
    // The daemon layers do not run in the simulator.
    for (const char* name :
         {"svc.stage.decode_mean_us", "svc.stage.reorder_mean_us",
          "svc.stage.engine_mean_us", "svc.stage.respond_mean_us",
          "svc.transport_mean_us", "svc.wal.append_mean_us"}) {
      m.Put(name, 0.0, "us");
    }
    m.Put("svc.batch_mean", 0.0, "count");
    m.Put("svc.wal.bytes_per_batch", 0.0, "bytes");
    r.table = LayerTable(title, layers_, replay_s_);
  }

 private:
  struct Repeats {
    std::vector<double> events;
    std::vector<double> rate;
    std::vector<double> wall_s;
    std::vector<double> eval_s;
  };

  std::int64_t events_ = 0;
  std::int64_t cells_ = 0;
  std::map<std::string, Repeats> by_type_;
  std::vector<double> setup_s_;
  std::vector<double> topology_s_;
  std::vector<double> scenario_s_;
  double replay_s_ = 0.0;    ///< traced replay wall, checks excluded
  double untraced_s_ = 0.0;  ///< RunScenario wall of the replayed cells
  std::int64_t heap_growth_bytes_ = 0;
  std::int64_t live_at_final_ = 0;
  Layers layers_;
};

}  // namespace

Result RunSimPaper60(const Options& opts) {
  struct Grid {
    double degree;
    double lambda_below;  // below the saturation point (§6.1)
    double lambda_above;
  };
  constexpr Grid kGrid[] = {{3.0, 0.3, 0.7}, {4.0, 0.6, 1.0}};
  constexpr sim::TrafficPattern kPatterns[] = {sim::TrafficPattern::kUniform,
                                               sim::TrafficPattern::kHotspot};
  const std::vector<std::string> kSchemes = {"D-LSR", "P-LSR", "BF"};

  sim::ExperimentConfig config = sim::MakePaperExperiment();
  if (opts.tiny) config.warmup = 600.0;

  struct Cell {
    std::string type;
    const net::Topology* topo;
    sim::Scenario scenario;
    std::vector<std::unique_ptr<core::RoutingScheme>> schemes;
  };

  Result r;
  SimTotals totals;
  HostSpeed host;
  // Set-up of one pass over the grid: topologies, scenarios, schemes.
  // The networks are the paper's fixed 60-node graphs and the traffic
  // comes from the run seed, so every pass repeats the same cells.
  std::vector<net::Topology> topos;
  std::vector<Cell> cells;
  const auto set_up = [&] {
    const Clock::time_point setup0 = Clock::now();
    cells.clear();
    topos.clear();
    topos.reserve(std::size(kGrid));
    for (const Grid& g : kGrid) {
      topos.push_back(sim::MakePaperTopology(g.degree, 1));
    }
    const double topo_s = SecondsSince(setup0);
    const Clock::time_point scen0 = Clock::now();
    for (std::size_t gi = 0; gi < std::size(kGrid); ++gi) {
      const Grid& g = kGrid[gi];
      for (const sim::TrafficPattern pattern : kPatterns) {
        for (const double lambda : {g.lambda_below, g.lambda_above}) {
          sim::TrafficConfig tc = sim::MakePaperTraffic(
              pattern, lambda, Mix(opts.seed, cells.size()));
          if (opts.tiny) {
            // Short lifetimes so connections are released inside the
            // short window too.
            tc.duration = 1200.0;
            tc.lifetime_min /= 4;
            tc.lifetime_max /= 4;
          }
          char type[64];
          std::snprintf(type, sizeof type, "E=%.0f %s lambda=%.1f", g.degree,
                        sim::PatternName(pattern), lambda);
          Cell cell;
          cell.type = type;
          cell.topo = &topos[gi];
          cell.scenario = sim::Scenario::Generate(topos[gi], tc);
          cells.push_back(std::move(cell));
        }
      }
    }
    const double scen_s = SecondsSince(scen0);
    for (Cell& cell : cells) {
      for (const std::string& label : kSchemes) {
        cell.schemes.push_back(sim::MakeScheme(label, *cell.topo, opts.seed));
      }
    }
    totals.Setup(SecondsSince(setup0), topo_s, scen_s);
  };

  // The set-up is timed four times before the window and once per pass;
  // setup_s is the median.
  for (int rep = 0; rep < 4; ++rep) set_up();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0;; ++pass) {
    set_up();

    // Stop once the window is used up, but only after a full pass so
    // every cell type is measured.
    bool done = false;
    for (const Cell& cell : cells) {
      for (std::size_t s = 0; s < kSchemes.size() && !done; ++s) {
        const std::string& label = kSchemes[s];
        const std::string type = cell.type + " " + label;
        totals.Cell(
            r, opts, type, "pass " + std::to_string(pass) + " " + type,
            *cell.topo, cell.scenario, *cell.schemes[s],
            [&] { return sim::MakeScheme(label, *cell.topo, opts.seed); },
            config);
        // The host kernel takes 3% of the window, spread between cells.
        host.SampleUpTo(0.03, SecondsSince(start));
        done = pass > 0 && SecondsSince(start) >= opts.seconds;
      }
    }
    if (SecondsSince(start) >= opts.seconds) break;
  }
  totals.Report(r, opts, "sim-paper60 traced replay", host);
  return r;
}

}  // namespace drtpbench
