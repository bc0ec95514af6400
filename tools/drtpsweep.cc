// drtpsweep — run an arbitrary evaluation sweep from flags on the
// parallel sweep engine.
//
// The grid is the cross product of --seeds × --degrees × --patterns ×
// --lambdas × --schemes; every cell replays the §6 measurement protocol.
// Results stream to a JSONL file (--out) as cells complete and/or render
// as one aligned table per sweep on stdout. Cell results are bit-identical
// for every --jobs value.
//
// Sweeps with --out keep a checkpoint journal (<out>.ckpt) beside the
// results file when it is a regular file (not a device or pipe), so a
// killed run restarts where it left off with --resume, and --shard=i/N
// partitions the grid across uncoordinated processes whose outputs
// tools/drtpmerge reassembles byte-identically.
//
// Examples:
//   drtpsweep --fast --jobs=4
//   drtpsweep --degrees=3 --patterns=UT --lambdas=0.2,0.5,0.8
//       --schemes=NoBackup,D-LSR --jobs=0 --out=results.jsonl
//   drtpsweep --lambdas=paper --replications=5 --failures=60 --jobs=8
//   drtpsweep --out=results.jsonl --resume        # continue a killed run
//   drtpsweep --out=results.jsonl --shard=2/4     # writes
//       results.shard-2.jsonl (+ .ckpt); merge with drtpmerge
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/checkpoint.h"
#include "runner/sweep.h"

using namespace drtp;

namespace {

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<double> ParseDoubles(const std::string& text,
                                 const std::string& flag) {
  std::vector<double> out;
  for (const std::string& item : SplitCsv(text)) {
    try {
      std::size_t used = 0;
      const double v = std::stod(item, &used);
      DRTP_CHECK(used == item.size());
      out.push_back(v);
    } catch (const std::exception&) {
      DRTP_CHECK_MSG(false, "--" << flag << ": bad number '" << item << "'");
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("drtpsweep");
  auto& seed = flags.Int64("seed", 1, "base experiment seed");
  auto& replications = flags.Int64(
      "replications", 1, "independent topology+traffic seeds (seed + r*101)",
      1, 1'000'000);
  auto& degrees = flags.String("degrees", "3,4", "average node degrees");
  auto& patterns = flags.String("patterns", "UT,NT", "traffic patterns");
  auto& lambdas = flags.String(
      "lambdas", "paper",
      "arrival rates: comma list, or 'paper' (9-point grid) / 'fast'");
  auto& schemes = flags.String(
      "schemes", "D-LSR,P-LSR,BF",
      "comma list of D-LSR|P-LSR|BF|NoBackup|RandomBackup|SD-Backup|"
      "{D,P}-LSR-SRLG-{SOFT,HARD}|SRLG-PAIR");
  auto& duration = flags.Double("duration", sim::kPaperDuration,
                                "scenario horizon in seconds");
  auto& fast = flags.Bool("fast", false,
                          "quartered horizon with matched offered load");
  auto& backups =
      flags.Int64("backups", 1, "backups per connection", 0, 64);
  auto& dedicated =
      flags.Bool("dedicated_spares", false, "disable backup multiplexing");
  auto& refresh =
      flags.Double("lsdb_refresh", 0.0, "advert interval s (0 = instant)");
  auto& failures = flags.Int64(
      "failures", 0, "injected link failures per scenario", 0, 1'000'000);
  auto& node_failures = flags.Int64(
      "node-failures", 0, "whole-node failures per scenario (schema v2)", 0,
      1'000'000);
  auto& srlg_failures = flags.Int64(
      "srlg-failures", 0,
      "shared-risk-group failures per scenario (needs --srlg-groups)", 0,
      1'000'000);
  auto& bursts = flags.Int64(
      "bursts", 0, "simultaneous multi-link failure bursts per scenario", 0,
      1'000'000);
  auto& burst_size =
      flags.Int64("burst-size", 3, "distinct links per burst", 1, 1'000);
  auto& srlg_groups = flags.Int64(
      "srlg-groups", 0,
      "tag generated topologies with this many shared-risk groups", 0,
      1'000'000);
  auto& mttr = flags.Double("mttr", 300.0, "failure repair time, seconds");
  auto& topo_model = flags.String(
      "topo-model", "waxman",
      "topology model: waxman (paper §6.1; --degrees selects density) or "
      "hier (three-tier ISP hierarchy shaped by the --hier-* flags)");
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
  auto& audit = flags.Bool(
      "audit", false,
      "run the fault::Auditor in every cell; violations stream as "
      "drtp.audit/1 JSONL (--audit-out) and make the sweep exit 3");
  auto& audit_out = flags.String(
      "audit-out", "",
      "write per-cell audit violations (drtp.audit/1 JSONL, cell order) "
      "to this file instead of stderr");
  auto& jobs = flags.Int64(
      "jobs", 1, "worker threads (0 = hardware concurrency)", 0, 4096);
  auto& out = flags.String(
      "out", "",
      "write one JSON object per cell to this .jsonl file (truncates "
      "unless --resume) and, when it is a regular file, keep a checkpoint "
      "journal (<out>.ckpt) beside it");
  auto& resume = flags.Bool(
      "resume", false,
      "continue an interrupted sweep: verify <out>.ckpt against the "
      "partial results, drop any torn tail, rerun only missing cells");
  auto& shard_flag = flags.String(
      "shard", "",
      "run only shard i of N (i/N, cells by index % N); writes "
      "out.shard-i.jsonl + journal for tools/drtpmerge");
  auto& trace_path = flags.String(
      "trace", "", "write every cell's lifecycle events to this file");
  auto& trace_format = flags.String(
      "trace-format", "jsonl",
      "trace format: jsonl (drtp.trace/1) or chrome (chrome://tracing)");
  auto& metrics_out = flags.String(
      "metrics-out", "",
      "write a drtp.metrics/1 registry snapshot (JSON) after the sweep");
  auto& metrics_timings = flags.Bool(
      "metrics-timings", false,
      "include wall-clock timing histograms in --metrics-out (breaks "
      "byte-stability across runs)");
  auto& table = flags.Bool("table", true, "render the result table");
  auto& progress = flags.Bool("progress", true,
                              "progress to stderr (only when it is a tty)");
  flags.Parse(argc, argv);

  try {
    runner::SweepSpec spec;
    spec.seeds.clear();
    for (std::int64_t r = 0; r < replications; ++r) {
      spec.seeds.push_back(static_cast<std::uint64_t>(seed + r * 101));
    }
    spec.degrees = ParseDoubles(degrees, "degrees");
    spec.patterns.clear();
    for (const std::string& p : SplitCsv(patterns)) {
      if (p == "UT") {
        spec.patterns.push_back(sim::TrafficPattern::kUniform);
      } else if (p == "NT") {
        spec.patterns.push_back(sim::TrafficPattern::kHotspot);
      } else {
        std::fprintf(stderr, "drtpsweep: unknown pattern '%s' (UT|NT)\n",
                     p.c_str());
        return 2;
      }
    }
    if (lambdas == "paper") {
      spec.lambdas = runner::PaperLambdas(false);
    } else if (lambdas == "fast") {
      spec.lambdas = runner::PaperLambdas(true);
    } else {
      spec.lambdas = ParseDoubles(lambdas, "lambdas");
    }
    spec.schemes = SplitCsv(schemes);
    spec.duration = duration;
    spec.fast = fast;
    spec.num_backups = static_cast<int>(backups);
    spec.spare_mode = dedicated ? core::SpareMode::kDedicated
                                : core::SpareMode::kMultiplexed;
    spec.lsdb_refresh_interval = refresh;
    spec.failures = static_cast<int>(failures);
    spec.node_failures = static_cast<int>(node_failures);
    spec.srlg_failures = static_cast<int>(srlg_failures);
    spec.bursts = static_cast<int>(bursts);
    spec.burst_size = static_cast<int>(burst_size);
    spec.srlg_groups = static_cast<int>(srlg_groups);
    spec.mttr = mttr;
    spec.audit = audit;
    if (topo_model != "waxman" && topo_model != "hier") {
      std::fprintf(stderr, "drtpsweep: unknown --topo-model '%s' "
                           "(waxman|hier)\n", topo_model.c_str());
      return 2;
    }
    DRTP_CHECK_MSG(hier_chord_frac >= 0.0,
                   "--hier-chord-frac must be >= 0");
    spec.topo_model = topo_model;
    spec.hier.backbone = static_cast<int>(hier_backbone);
    spec.hier.pops_per_backbone = static_cast<int>(hier_ppb);
    spec.hier.metro_per_pop = static_cast<int>(hier_mpp);
    spec.hier.chord_frac = hier_chord_frac;

    runner::ShardAssignment shard;
    if (!shard_flag.empty()) shard = runner::ParseShard(shard_flag);
    if (shard.num_shards > 1 && out.empty()) {
      std::fprintf(stderr, "drtpsweep: --shard requires --out\n");
      return 2;
    }
    if (resume && out.empty()) {
      std::fprintf(stderr, "drtpsweep: --resume requires --out\n");
      return 2;
    }

    runner::SweepEngine engine(spec);
    runner::SweepEngine::RunOptions ro;
    ro.jobs = static_cast<int>(jobs);
    ro.progress = progress && isatty(fileno(stderr)) != 0;

    runner::CheckpointHeader header;
    header.spec_digest = runner::SpecDigest(spec);
    header.num_cells = spec.NumCells();
    header.shard = shard;

    // Every --out sweep to a regular file is checkpointed: the journal
    // rides beside the sink and costs one extra line per cell, and it is
    // what makes --resume and drtpmerge possible at all.
    std::string sink_path;
    runner::RecoveredCheckpoint recovered;
    std::unique_ptr<runner::CheckpointJournal> journal;
    std::unique_ptr<runner::JsonlSink> jsonl;
    if (!out.empty()) {
      sink_path = runner::ShardedPath(out, shard);
      const bool journaled =
          runner::KeepsJournal(out) && runner::KeepsJournal(sink_path);
      if ((resume || shard.num_shards > 1) && !journaled) {
        std::fprintf(stderr,
                     "drtpsweep: --resume and --shard need --out to be a "
                     "regular file or a new path; '%s' is not\n",
                     out.c_str());
        return 2;
      }
      if (resume) {
        recovered = runner::RecoverCheckpoint(sink_path, header);
        journal = std::make_unique<runner::CheckpointJournal>(
            runner::JournalPathFor(sink_path), /*append=*/!recovered.fresh);
        if (recovered.fresh) journal->WriteHeader(header);
      } else if (journaled) {
        journal = std::make_unique<runner::CheckpointJournal>(
            runner::JournalPathFor(sink_path), /*append=*/false);
        journal->WriteHeader(header);
      }
      jsonl = std::make_unique<runner::JsonlSink>(sink_path,
                                                  /*append=*/resume);
      jsonl->AttachJournal(journal.get());
      ro.sinks.push_back(jsonl.get());
    }
    if (shard.num_shards > 1 || resume) {
      std::vector<std::size_t> todo;
      for (std::size_t k = 0; k < header.num_cells; ++k) {
        if (shard.Owns(k) && !recovered.Done(k)) todo.push_back(k);
      }
      ro.only = std::move(todo);
      if (resume) {
        std::fprintf(stderr,
                     "resume: %zu cells already checkpointed, %zu to run\n",
                     recovered.entries.size(), ro.only->size());
      }
    }
    std::unique_ptr<runner::TableSink> tsink;
    if (table) {
      tsink = std::make_unique<runner::TableSink>(std::cout);
      ro.sinks.push_back(tsink.get());
    }
    std::unique_ptr<obs::TraceSink> trace;
    if (!trace_path.empty()) {
      if (trace_format == "jsonl") {
        trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
      } else if (trace_format == "chrome") {
        trace = std::make_unique<obs::ChromeTraceSink>(trace_path);
      } else {
        std::fprintf(stderr,
                     "drtpsweep: unknown --trace-format '%s' "
                     "(jsonl|chrome)\n",
                     trace_format.c_str());
        return 2;
      }
      ro.trace = trace.get();
    }

    const auto results = engine.Run(ro);
    if (jsonl != nullptr) {
      std::fprintf(stderr, "wrote %lld JSONL lines to %s\n",
                   static_cast<long long>(jsonl->lines_written()),
                   sink_path.c_str());
    }
    if (!trace_path.empty()) {
      std::fprintf(stderr, "wrote %s trace to %s\n", trace_format.c_str(),
                   trace_path.c_str());
    }
    if (!metrics_out.empty()) {
      const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
      JsonWriter w;
      snap.WriteJson(w, metrics_timings);
      std::ofstream os(metrics_out, std::ios::trunc);
      DRTP_CHECK_MSG(os.good(), "cannot write '" << metrics_out << "'");
      os << w.str() << '\n';
      os.flush();
      DRTP_CHECK_MSG(os.good(), "cannot write '" << metrics_out << "'");
    }
    if (audit) {
      // Per-cell violation lines, concatenated in cell order so the file
      // is deterministic for any --jobs value. A resumed run pulls the
      // already-done cells' evidence out of the journal, so its audit
      // output covers the whole shard, not just the cells it reran.
      std::int64_t checks = 0;
      std::int64_t violations = 0;
      std::vector<std::string> by_cell(spec.NumCells());
      std::size_t cells_seen = results.size();
      for (const runner::CheckpointEntry& e : recovered.entries) {
        checks += e.audit_checks;
        violations += e.audit_violations;
        by_cell[e.cell] = e.audit_jsonl;
        ++cells_seen;
      }
      for (const runner::CellResult& r : results) {
        checks += r.audit_checks;
        violations += r.audit_violations;
        by_cell[r.cell.index] = r.audit_jsonl;
      }
      std::string lines;
      for (const std::string& cell_lines : by_cell) lines += cell_lines;
      if (!audit_out.empty()) {
        std::ofstream os(audit_out, std::ios::trunc);
        DRTP_CHECK_MSG(os.good(), "cannot write '" << audit_out << "'");
        os << lines;
      } else {
        std::fputs(lines.c_str(), stderr);
      }
      std::fprintf(stderr,
                   "audit: %lld checks, %lld violations across %zu cells%s\n",
                   static_cast<long long>(checks),
                   static_cast<long long>(violations), cells_seen,
                   violations == 0 ? "" : " — INVARIANTS BROKEN");
      if (violations != 0) return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    // Completed cells were already flushed by the engine's sinks before
    // the failure propagated here.
    std::fprintf(stderr, "drtpsweep: %s\n", e.what());
    return 2;
  }
}
