// drtpsim — command-line front end to the DRTP library.
//
//   drtpsim topo      generate a topology (waxman|grid|ring|star|hier) as
//                     text/DOT
//   drtpsim scenario  generate a scenario file (UT/NT Poisson traffic,
//                     optional injected link failures)
//   drtpsim run       replay a scenario against a routing scheme and print
//                     the full metrics block
//
// Files written by `topo` and `scenario` are the library's own text
// formats (net::WriteTopology / sim::Scenario::Save) and round-trip with
// `run --topo/--scenario`.
//
// Examples:
//   drtpsim topo --kind=waxman --nodes=60 --degree=3 --out=net.topo
//   drtpsim scenario --topo=net.topo --pattern=NT --lambda=0.5 ...
//       --failures=20 --out=run.scn
//   drtpsim run --topo=net.topo --scenario=run.scn --scheme=D-LSR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/table.h"
#include "fault/auditor.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/obs_bridge.h"
#include "drtp/drtp.h"
#include "drtp/failure.h"
#include "net/graphio.h"
#include "runner/json.h"
#include "runner/sink.h"
#include "sim/experiment.h"
#include "sim/paper.h"

using namespace drtp;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "drtpsim: %s\n", message.c_str());
  return 2;
}

net::Topology LoadTopology(const std::string& path) {
  std::ifstream in(path);
  DRTP_CHECK_MSG(in.good(), "cannot open topology file '" << path << "'");
  return net::ReadTopology(in);
}

int CmdTopo(int argc, char** argv) {
  FlagSet flags("drtpsim topo");
  auto& kind = flags.String("kind", "waxman", "waxman|grid|ring|star|hier");
  auto& model = flags.String(
      "model", "", "alias for --kind (takes precedence when set)");
  auto& nodes = flags.Int64("nodes", 60, "node count (waxman/ring/star)", 2,
                            10'000'000);
  auto& degree = flags.Double("degree", 3.0, "average degree (waxman)");
  auto& rows = flags.Int64("rows", 3, "grid rows", 1, 100'000);
  auto& cols = flags.Int64("cols", 3, "grid cols", 1, 100'000);
  auto& capacity = flags.Int64("capacity_mbps", 30, "link capacity, Mbps", 1,
                               100'000'000);
  auto& hier_backbone = flags.Int64(
      "hier-backbone", 10, "hier: backbone ring size", 3, 1'000'000);
  auto& hier_ppb = flags.Int64(
      "hier-pops-per-backbone", 3, "hier: PoPs per backbone router", 0,
      1'000'000);
  auto& hier_mpp = flags.Int64(
      "hier-metro-per-pop", 32, "hier: metro nodes per PoP", 0, 1'000'000);
  auto& hier_chord_frac = flags.Double(
      "hier-chord-frac", 0.25,
      "hier: extra backbone chords as a fraction of the ring size");
  auto& hier_backbone_mbps = flags.Int64(
      "hier-backbone-mbps", 120, "hier: backbone link capacity, Mbps", 1,
      100'000'000);
  auto& hier_pop_mbps = flags.Int64(
      "hier-pop-mbps", 60, "hier: PoP uplink capacity, Mbps", 1,
      100'000'000);
  auto& hier_metro_mbps = flags.Int64(
      "hier-metro-mbps", 30, "hier: metro ring capacity, Mbps", 1,
      100'000'000);
  auto& srlg_groups = flags.Int64(
      "srlg_groups", 0,
      "tag links with this many shared-risk groups (waxman/hier; 0 = none)",
      0, 1'000'000);
  auto& seed = flags.Int64("seed", 1, "generator seed");
  auto& out = flags.String("out", "-", "output file, '-' for stdout");
  auto& dot = flags.Bool("dot", false, "emit Graphviz DOT instead of text");
  flags.Parse(argc, argv);

  net::Topology topo;
  const Bandwidth cap = Mbps(capacity);
  const std::string& shape = model.empty() ? kind : model;
  if (shape == "waxman") {
    topo = net::MakeWaxman({.nodes = static_cast<int>(nodes),
                            .avg_degree = degree,
                            .link_capacity = cap,
                            .srlg_groups = static_cast<int>(srlg_groups),
                            .seed = static_cast<std::uint64_t>(seed)});
  } else if (shape == "hier") {
    if (hier_chord_frac < 0.0) return Fail("--hier-chord-frac must be >= 0");
    topo = net::MakeHierarchical(
        {.backbone = static_cast<int>(hier_backbone),
         .pops_per_backbone = static_cast<int>(hier_ppb),
         .metro_per_pop = static_cast<int>(hier_mpp),
         .chord_frac = hier_chord_frac,
         .backbone_capacity = Mbps(hier_backbone_mbps),
         .pop_capacity = Mbps(hier_pop_mbps),
         .metro_capacity = Mbps(hier_metro_mbps),
         .srlg_groups = static_cast<int>(srlg_groups),
         .seed = static_cast<std::uint64_t>(seed)});
  } else if (shape == "grid") {
    topo = net::MakeGrid(static_cast<int>(rows), static_cast<int>(cols), cap);
  } else if (shape == "ring") {
    topo = net::MakeRing(static_cast<int>(nodes), cap);
  } else if (shape == "star") {
    topo = net::MakeStar(static_cast<int>(nodes) - 1, cap);
  } else {
    return Fail("unknown --kind '" + shape + "'");
  }
  const std::string text =
      dot ? net::TopologyToDot(topo) : net::TopologyToString(topo);
  if (out == "-") {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream os(out);
    if (!os.good()) return Fail("cannot write '" + out + "'");
    os << text;
    std::fprintf(stderr, "wrote %s (%d nodes, %d links)\n", out.c_str(),
                 topo.num_nodes(), topo.num_links());
  }
  return 0;
}

int CmdScenario(int argc, char** argv) {
  FlagSet flags("drtpsim scenario");
  auto& topo_path = flags.String("topo", "", "topology file (required)");
  auto& pattern = flags.String("pattern", "UT", "UT|NT");
  auto& lambda = flags.Double("lambda", 0.5, "arrival rate /s");
  auto& duration = flags.Double("duration", sim::kPaperDuration,
                                "request horizon, seconds");
  auto& bw = flags.Int64("bw_mbps", 1, "per-connection bandwidth, Mbps");
  auto& seed = flags.Int64("seed", 1, "traffic seed");
  auto& failures = flags.Int64("failures", 0, "injected link failures");
  auto& node_failures =
      flags.Int64("node_failures", 0, "whole-node failures (schema v2)");
  auto& srlg_failures = flags.Int64(
      "srlg_failures", 0,
      "shared-risk-group failures (needs an SRLG-tagged topology)");
  auto& bursts =
      flags.Int64("bursts", 0, "simultaneous multi-link failure bursts");
  auto& burst_size =
      flags.Int64("burst_size", 3, "distinct links per burst");
  auto& mttr = flags.Double("mttr", 300.0, "repair time, seconds");
  auto& out = flags.String("out", "-", "output file, '-' for stdout");
  flags.Parse(argc, argv);

  if (topo_path.empty()) return Fail("--topo is required");
  const net::Topology topo = LoadTopology(topo_path);

  sim::TrafficConfig tc = sim::MakePaperTraffic(
      pattern == "NT" ? sim::TrafficPattern::kHotspot
                      : sim::TrafficPattern::kUniform,
      lambda, static_cast<std::uint64_t>(seed));
  tc.duration = duration;
  tc.bw = Mbps(bw);
  sim::Scenario sc = sim::Scenario::Generate(topo, tc);
  if (failures > 0) {
    sim::InjectLinkFailures(sc, topo, static_cast<int>(failures),
                            duration * 0.2, duration * 0.95, mttr,
                            static_cast<std::uint64_t>(seed) + 77);
  }
  if (node_failures > 0 || srlg_failures > 0 || bursts > 0) {
    fault::CampaignConfig cc;
    cc.node_failures = static_cast<int>(node_failures);
    cc.srlg_failures = static_cast<int>(srlg_failures);
    cc.bursts = static_cast<int>(bursts);
    cc.burst_size = static_cast<int>(burst_size);
    cc.t_begin = duration * 0.2;
    cc.t_end = duration * 0.95;
    cc.mttr = mttr;
    cc.seed = static_cast<std::uint64_t>(seed) + 88;
    fault::MakeCampaign(topo, cc).InjectInto(sc);
  }
  if (out == "-") {
    sc.Save(std::cout);
  } else {
    std::ofstream os(out);
    if (!os.good()) return Fail("cannot write '" + out + "'");
    sc.Save(os);
    std::fprintf(stderr, "wrote %s (%lld requests, %lld failures)\n",
                 out.c_str(), static_cast<long long>(sc.NumRequests()),
                 static_cast<long long>(sc.NumFailures()));
  }
  return 0;
}

int CmdRun(int argc, char** argv) {
  FlagSet flags("drtpsim run");
  auto& topo_path = flags.String("topo", "", "topology file (required)");
  auto& scenario_path =
      flags.String("scenario", "", "scenario file (required)");
  auto& scheme_name =
      flags.String("scheme", "D-LSR",
                   "D-LSR|P-LSR|BF|NoBackup|RandomBackup|SD-Backup|"
                   "{D,P}-LSR-SRLG-{SOFT,HARD}|SRLG-PAIR");
  auto& warmup_frac =
      flags.Double("warmup_frac", 0.4, "warmup as fraction of the horizon");
  auto& num_backups = flags.Int64("backups", 1, "backups per connection");
  auto& dedicated =
      flags.Bool("dedicated_spares", false, "disable backup multiplexing");
  auto& refresh =
      flags.Double("lsdb_refresh", 0.0, "advert interval s (0 = instant)");
  auto& seed = flags.Int64("seed", 1, "scheme seed (RandomBackup)");
  auto& trace_path =
      flags.String("trace", "", "write an event trace to this file");
  auto& trace_format = flags.String(
      "trace-format", "text",
      "trace format: text (ns-style lines), jsonl (drtp.trace/1), or "
      "chrome (chrome://tracing JSON)");
  auto& metrics_out = flags.String(
      "metrics-out", "",
      "write a drtp.metrics/1 registry snapshot (JSON) to this file");
  auto& metrics_timings = flags.Bool(
      "metrics-timings", false,
      "include wall-clock timing histograms in --metrics-out (breaks "
      "byte-stability across runs)");
  auto& audit = flags.Bool(
      "audit", false,
      "run the fault::Auditor after every replay event; violations stream "
      "as drtp.audit/1 JSONL and make the run exit 3");
  auto& audit_out = flags.String(
      "audit-out", "",
      "write audit violations to this file instead of stderr");
  auto& format = flags.String(
      "format", "table",
      "output format: table, or json (one schema-versioned object)");
  flags.Parse(argc, argv);
  if (format != "table" && format != "json") {
    return Fail("unknown --format '" + format + "' (table|json)");
  }
  if (trace_format != "text" && trace_format != "jsonl" &&
      trace_format != "chrome") {
    return Fail("unknown --trace-format '" + trace_format +
                "' (text|jsonl|chrome)");
  }

  if (topo_path.empty()) return Fail("--topo is required");
  if (scenario_path.empty()) return Fail("--scenario is required");
  const net::Topology topo = LoadTopology(topo_path);
  std::ifstream sin(scenario_path);
  if (!sin.good()) return Fail("cannot open '" + scenario_path + "'");
  const sim::Scenario sc = sim::Scenario::Load(sin);

  sim::ExperimentConfig ec;
  ec.warmup = sc.traffic.duration * warmup_frac;
  ec.sample_interval = sc.traffic.duration / 50.0;
  ec.num_backups = static_cast<int>(num_backups);
  ec.spare_mode = dedicated ? core::SpareMode::kDedicated
                            : core::SpareMode::kMultiplexed;
  ec.lsdb_refresh_interval = refresh;
  std::ofstream trace_file;
  std::unique_ptr<sim::TextTraceSink> trace;
  std::unique_ptr<obs::TraceSink> obs_trace;
  std::unique_ptr<sim::ObsBridge> bridge;
  if (!trace_path.empty()) {
    if (trace_format == "text") {
      trace_file.open(trace_path);
      if (!trace_file.good()) {
        return Fail("cannot write '" + trace_path + "'");
      }
      trace = std::make_unique<sim::TextTraceSink>(trace_file);
      ec.trace = trace.get();
    } else {
      if (trace_format == "jsonl") {
        obs_trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
      } else {
        obs_trace = std::make_unique<obs::ChromeTraceSink>(trace_path);
      }
      bridge = std::make_unique<sim::ObsBridge>(*obs_trace, scheme_name);
      ec.trace = bridge.get();
    }
  }
  auto scheme = sim::MakeScheme(scheme_name, topo,
                                static_cast<std::uint64_t>(seed));
  std::ofstream audit_file;
  std::unique_ptr<fault::Auditor> auditor;
  if (audit) {
    fault::AuditorOptions ao;
    if (!audit_out.empty()) {
      audit_file.open(audit_out, std::ios::trunc);
      if (!audit_file.good()) return Fail("cannot write '" + audit_out + "'");
      ao.out = &audit_file;
    } else {
      ao.out = &std::cerr;
    }
    ao.require_srlg_disjoint = scheme->requires_srlg_disjoint_backup();
    auditor = std::make_unique<fault::Auditor>(ao);
    ec.after_event = [&auditor](const core::DrtpNetwork& net, Time t,
                                std::string_view event,
                                const core::SwitchoverReport* report) {
      auditor->Check(net, t, event, report);
    };
  }
  const sim::RunMetrics m = sim::RunScenario(topo, sc, *scheme, ec);
  if (obs_trace != nullptr) obs_trace->Finish();
  int exit_code = 0;
  if (auditor != nullptr) {
    std::fprintf(stderr,
                 "audit: %lld checks, %lld violations%s\n",
                 static_cast<long long>(auditor->checks()),
                 static_cast<long long>(auditor->violation_count()),
                 auditor->ok() ? "" : " — INVARIANTS BROKEN");
    if (!auditor->ok()) exit_code = 3;
  }
  if (trace != nullptr) {
    std::fprintf(stderr, "wrote %lld trace lines to %s\n",
                 static_cast<long long>(trace->lines_written()),
                 trace_path.c_str());
  } else if (obs_trace != nullptr) {
    std::fprintf(stderr, "wrote %s trace to %s\n", trace_format.c_str(),
                 trace_path.c_str());
  }
  if (!metrics_out.empty()) {
    const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    runner::JsonWriter w;
    snap.WriteJson(w, metrics_timings);
    std::ofstream os(metrics_out, std::ios::trunc);
    if (!os.good()) return Fail("cannot write '" + metrics_out + "'");
    os << w.str() << '\n';
  }

  if (format == "json") {
    runner::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(runner::kRunJsonSchema);
    w.Key("topo").String(topo_path);
    w.Key("scenario").String(scenario_path);
    w.Key("seed").Int(seed);
    w.Key("metrics").BeginObject();
    runner::WriteRunMetrics(w, m);
    w.EndObject();
    if (auditor != nullptr) {
      w.Key("audit").BeginObject();
      w.Key("checks").Int(auditor->checks());
      w.Key("violations").Int(auditor->violation_count());
      w.EndObject();
    }
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return exit_code;
  }

  TextTable t({"metric", "value"});
  const auto row = [&](const std::string& k, const std::string& v) {
    t.BeginRow();
    t.Cell(k);
    t.Cell(v);
  };
  char buf[64];
  const auto num = [&](double x, int prec) {
    if (std::isnan(x)) return std::string("--");
    std::snprintf(buf, sizeof buf, "%.*f", prec, x);
    return std::string(buf);
  };
  row("scheme", m.scheme);
  row("requests", std::to_string(m.requests));
  row("admitted", std::to_string(m.admitted));
  row("blocked", std::to_string(m.blocked));
  row("protected", std::to_string(m.with_backup));
  row("P_bk (what-if)", num(m.pbk.value(), 4));
  if (m.pbk_srlg.trials > 0) {
    row("P_bk^srlg (backup survives group failure)",
        num(m.pbk_srlg.value(), 4));
  }
  row("avg active connections", num(m.avg_active, 1));
  row("avg primary hops", num(m.primary_hops.mean(), 2));
  row("avg backup hops", num(m.backup_hops.mean(), 2));
  row("avg prime bw (Mbps)", num(m.prime_bw.mean() / 1000.0, 1));
  row("avg spare bw (Mbps)", num(m.spare_bw.mean() / 1000.0, 1));
  row("control msgs", std::to_string(m.control_messages));
  row("control bytes", std::to_string(m.control_bytes));
  row("overbooked hops", std::to_string(m.overbooked_hops));
  if (m.failures_enacted > 0) {
    row("failures enacted", std::to_string(m.failures_enacted));
    row("failovers recovered", std::to_string(m.failover_recovered));
    row("failovers dropped", std::to_string(m.failover_dropped));
    row("backups broken", std::to_string(m.backups_broken));
    row("backups re-established", std::to_string(m.backups_reestablished));
    row("enacted recovery ratio", num(m.EnactedRecoveryRatio(), 4));
  }
  if (m.degraded > 0) {
    row("degraded (unprotected)", std::to_string(m.degraded));
    row("re-protect retries", std::to_string(m.reprotect_retries));
    row("re-protect recovered", std::to_string(m.reprotect_recovered));
    row("re-protect exhausted", std::to_string(m.reprotect_exhausted));
  }
  std::fputs(t.Render().c_str(), stdout);
  return exit_code;
}

// Replays a scenario, then audits the final network: which links would
// hurt most if they failed right now, and which are overbooked.
int CmdAudit(int argc, char** argv) {
  FlagSet flags("drtpsim audit");
  auto& topo_path = flags.String("topo", "", "topology file (required)");
  auto& scenario_path =
      flags.String("scenario", "", "scenario file (required)");
  auto& scheme_name = flags.String("scheme", "D-LSR", "routing scheme");
  auto& worst = flags.Int64("worst", 10, "how many risky links to list");
  auto& seed = flags.Int64("seed", 1, "scheme seed");
  flags.Parse(argc, argv);
  if (topo_path.empty()) return Fail("--topo is required");
  if (scenario_path.empty()) return Fail("--scenario is required");
  const net::Topology topo = LoadTopology(topo_path);
  std::ifstream sin(scenario_path);
  if (!sin.good()) return Fail("cannot open '" + scenario_path + "'");
  const sim::Scenario sc = sim::Scenario::Load(sin);

  sim::ExperimentConfig ec;
  ec.warmup = sc.traffic.duration * 0.4;
  ec.sample_interval = sc.traffic.duration / 50.0;
  ec.inspect_final = [&](const core::DrtpNetwork& net) {
    struct Risk {
      LinkId link;
      core::FailureImpact impact;
    };
    std::vector<core::FailureImpact> per_link;
    (void)core::EvaluateAllSingleLinkFailures(net, &per_link);
    std::vector<Risk> risks;
    for (LinkId l = 0; l < net.topology().num_links(); ++l) {
      const core::FailureImpact& impact =
          per_link[static_cast<std::size_t>(l)];
      if (impact.attempts > 0) risks.push_back({l, impact});
    }
    std::sort(risks.begin(), risks.end(), [](const Risk& a, const Risk& b) {
      return (a.impact.attempts - a.impact.activated) >
             (b.impact.attempts - b.impact.activated);
    });
    TextTable t({"link", "route", "primaries hit", "would recover",
                 "would drop"});
    for (std::size_t i = 0;
         i < risks.size() && i < static_cast<std::size_t>(worst); ++i) {
      const auto& r = risks[i];
      const net::Link& link = net.topology().link(r.link);
      t.BeginRow();
      t.Cell(std::to_string(r.link));
      t.Cell(std::to_string(link.src) + "->" + std::to_string(link.dst));
      t.Cell(static_cast<std::int64_t>(r.impact.attempts));
      t.Cell(static_cast<std::int64_t>(r.impact.activated));
      t.Cell(static_cast<std::int64_t>(r.impact.attempts -
                                       r.impact.activated));
    }
    std::printf("\nRiskiest links at end of replay:\n");
    std::fputs(t.Render().c_str(), stdout);
    const auto overbooked = net.OverbookedLinks();
    std::printf("\noverbooked spare pools: %zu links\n", overbooked.size());
  };
  auto scheme = sim::MakeScheme(scheme_name, topo,
                                static_cast<std::uint64_t>(seed));
  const sim::RunMetrics m = sim::RunScenario(topo, sc, *scheme, ec);
  std::printf("replayed %lld requests with %s: P_bk = %.4f, %.1f avg active\n",
              static_cast<long long>(m.requests), m.scheme.c_str(),
              m.pbk.value(), m.avg_active);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: drtpsim <topo|scenario|run|audit> [flags]\n"
                 "       drtpsim <command> --help for details\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    // Shift argv so each subcommand's FlagSet sees its own flags.
    if (cmd == "topo") return CmdTopo(argc - 1, argv + 1);
    if (cmd == "scenario") return CmdScenario(argc - 1, argv + 1);
    if (cmd == "run") return CmdRun(argc - 1, argv + 1);
    if (cmd == "audit") return CmdAudit(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    // Library invariants (CheckError) double as argument validation here;
    // surface them as ordinary CLI errors rather than std::terminate.
    return Fail(e.what());
  }
  return Fail("unknown command '" + cmd + "'");
}
