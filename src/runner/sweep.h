// Parallel sweep engine: expands a declarative SweepSpec into independent
// evaluation cells and replays them on a work-stealing thread pool.
//
// Determinism contract: every cell's result depends only on the spec and
// the cell's own grid coordinates — never on thread count or execution
// order. Shared inputs (per-degree topologies, per-(degree,pattern,λ)
// scenarios) are derived from the cell's base seed and coordinates and
// cached behind a shared_mutex; whichever thread populates a cache entry
// first produces the same value any other thread would have. Per-cell
// randomness (e.g. the RandomBackup scheme) is seeded with
// splitmix64(base_seed, cell_index), so a sweep at --jobs=8 is
// bit-identical to the same sweep at --jobs=1.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <vector>

#include "net/generators.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "runner/sink.h"
#include "runner/thread_pool.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/scenario.h"
#include "sim/traffic.h"

namespace drtp::runner {

/// Stateless splitmix64: the `index`-th value of the stream seeded with
/// `base_seed`. Used to derive independent per-cell seeds.
std::uint64_t CellSeed(std::uint64_t base_seed, std::uint64_t cell_index);

/// The paper's λ grid for Fig. 4/5 (0.2 … 1.0), thinned under fast mode.
std::vector<double> PaperLambdas(bool fast);

/// Declarative description of one sweep: the cross product of every
/// vector below, replayed with the §6 measurement protocol.
struct SweepSpec {
  /// Replication base seeds; topology/traffic reseed together per entry.
  std::vector<std::uint64_t> seeds = {1};
  std::vector<double> degrees = {3.0, 4.0};
  std::vector<sim::TrafficPattern> patterns = {sim::TrafficPattern::kUniform,
                                               sim::TrafficPattern::kHotspot};
  std::vector<double> lambdas = PaperLambdas(false);
  std::vector<std::string> schemes = {"D-LSR", "P-LSR", "BF"};

  /// Scenario horizon in seconds; quartered under `fast`, with λ scaled so
  /// offered load matches the full-length run (the CellRunner convention).
  double duration = sim::kPaperDuration;
  bool fast = false;

  /// Experiment-protocol passthroughs (sim::ExperimentConfig).
  int num_backups = 1;
  core::SpareMode spare_mode = core::SpareMode::kMultiplexed;
  double lsdb_refresh_interval = 0.0;

  /// When > 0, inject this many enacted link failures per scenario inside
  /// [warmup, 0.95 · horizon], each repaired after `mttr` seconds.
  int failures = 0;
  double mttr = 300.0;

  /// Structured fault campaign (fault::MakeCampaign) layered on top of the
  /// plain link failures above, drawn in the same window: whole-node
  /// failures, shared-risk-group failures, and simultaneous multi-link
  /// bursts of `burst_size` links. SRLG failures require srlg_groups > 0.
  int node_failures = 0;
  int srlg_failures = 0;
  int bursts = 0;
  int burst_size = 3;
  /// Geographic SRLG clusters tagged onto every generated topology
  /// (0 = untagged, bit-identical to historical sweeps).
  int srlg_groups = 0;

  /// Topology model: "waxman" (the paper's §6.1 graphs; the `degrees`
  /// axis selects density) or "hier" (three-tier ISP hierarchy sized by
  /// `hier`; the degrees axis is carried through the grid but the graph
  /// shape comes from `hier` alone). Waxman sweeps are byte-identical to
  /// historical ones: the model only enters JSONL lines and the spec
  /// digest when != "waxman".
  std::string topo_model = "waxman";
  /// Shape of the "hier" model; seed and srlg_groups are taken from the
  /// cell's base seed and `srlg_groups` above, not from this struct.
  net::HierConfig hier;

  /// Run the fault::Auditor after every replay event of every cell and
  /// carry its check/violation counts (plus drtp.audit/1 lines) in the
  /// CellResult. Violations never abort a sweep — tools decide the exit.
  bool audit = false;

  std::size_t NumCells() const {
    return seeds.size() * degrees.size() * patterns.size() * lambdas.size() *
           schemes.size();
  }
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepSpec spec);

  const SweepSpec& spec() const { return spec_; }
  /// Horizon actually replayed (spec duration, quartered under fast).
  double effective_duration() const { return duration_; }

  /// Grid expansion in a fixed order (seeds ≻ degrees ≻ patterns ≻
  /// lambdas ≻ schemes); Cell::index is the position in this order.
  std::vector<Cell> Cells() const;

  /// The §6 measurement protocol scaled to the effective horizon.
  sim::ExperimentConfig Experiment() const;

  struct RunOptions {
    /// Worker threads; <= 0 selects hardware concurrency.
    int jobs = 1;
    /// Report progress (done/total, cells/s, ETA) to stderr.
    bool progress = false;
    /// Receivers for each completed cell; not owned. Sinks must be
    /// thread-safe; Finish() is called once on each after the sweep.
    std::vector<ResultSink*> sinks;
    /// Receives every cell's lifecycle trace records (stamped with the
    /// cell index and scheme); not owned, must be thread-safe. Finish()
    /// is called once after the sweep. Null = tracing off.
    obs::TraceSink* trace = nullptr;
    /// When set, run only these cells (by Cell::index) — the
    /// resume/shard path: a resumed sweep passes the cells its journal
    /// lacks, a shard passes the indices it owns. Duplicates and
    /// out-of-range indices trip a DRTP_CHECK. An empty list is honored
    /// (runs nothing); leave unset to run the whole grid.
    std::optional<std::vector<std::size_t>> only;
  };

  /// Runs every selected cell and returns their results ordered by
  /// Cell::index (the whole grid unless options.only narrows it).
  /// A cell that throws aborts the sweep with that exception — but only
  /// after the remaining queued cells drain and every sink's Finish()
  /// runs, so results completed before the failure are never lost.
  std::vector<CellResult> Run(const RunOptions& options);

  /// Shared-input caches (also used by harnesses that need the raw
  /// topology or scenario of a cell, e.g. for audits). Thread-safe; the
  /// returned references live as long as the engine.
  const net::Topology& TopologyFor(std::uint64_t base_seed, double degree);
  const sim::Scenario& ScenarioFor(std::uint64_t base_seed, double degree,
                                   sim::TrafficPattern pattern, double lambda);

  /// Runs one cell synchronously (the unit of work Run() parallelises).
  /// When `trace` is set, the replay writes the cell's lifecycle events
  /// to it, stamped with the cell index (ExperimentConfig::trace_cell)
  /// and the scheme label.
  CellResult RunCell(const Cell& cell, obs::TraceSink* trace = nullptr);

 private:
  SweepSpec spec_;
  double duration_;  // effective horizon

  std::shared_mutex topo_mu_;
  std::map<std::pair<std::uint64_t, double>, std::unique_ptr<net::Topology>>
      topos_;

  std::shared_mutex scenario_mu_;
  std::map<std::tuple<std::uint64_t, double, sim::TrafficPattern, double>,
           std::unique_ptr<sim::Scenario>>
      scenarios_;
};

}  // namespace drtp::runner
