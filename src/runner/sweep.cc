#include "runner/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>

#include "common/check.h"
#include "fault/auditor.h"
#include "fault/plan.h"
#include "obs/metrics.h"

namespace drtp::runner {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t CellSeed(std::uint64_t base_seed, std::uint64_t cell_index) {
  // Stateless splitmix64: jump the stream seeded at base_seed directly to
  // output `cell_index` (the generator's increment is a Weyl sequence, so
  // the i-th state is base_seed + (i+1)·γ).
  std::uint64_t z = base_seed + (cell_index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> PaperLambdas(bool fast) {
  if (fast) return {0.2, 0.5, 0.8};
  return {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

SweepEngine::SweepEngine(SweepSpec spec)
    : spec_(std::move(spec)),
      duration_(spec_.fast ? spec_.duration / 4 : spec_.duration) {
  DRTP_CHECK_MSG(spec_.NumCells() > 0, "empty sweep grid");
  DRTP_CHECK_MSG(spec_.topo_model == "waxman" || spec_.topo_model == "hier",
                 "unknown topology model '" << spec_.topo_model << "'");
}

std::vector<Cell> SweepEngine::Cells() const {
  std::vector<Cell> cells;
  cells.reserve(spec_.NumCells());
  std::size_t index = 0;
  for (const std::uint64_t seed : spec_.seeds) {
    for (const double degree : spec_.degrees) {
      for (const auto pattern : spec_.patterns) {
        for (const double lambda : spec_.lambdas) {
          for (const std::string& scheme : spec_.schemes) {
            Cell c;
            c.index = index;
            c.base_seed = seed;
            c.degree = degree;
            c.pattern = pattern;
            c.lambda = lambda;
            c.scheme = scheme;
            c.cell_seed = CellSeed(seed, static_cast<std::uint64_t>(index));
            c.topo_model = spec_.topo_model;
            cells.push_back(std::move(c));
            ++index;
          }
        }
      }
    }
  }
  return cells;
}

sim::ExperimentConfig SweepEngine::Experiment() const {
  sim::ExperimentConfig ec = sim::MakePaperExperiment();
  ec.warmup = duration_ * 0.4;
  ec.sample_interval = duration_ / 50.0;
  ec.num_backups = spec_.num_backups;
  ec.spare_mode = spec_.spare_mode;
  ec.lsdb_refresh_interval = spec_.lsdb_refresh_interval;
  return ec;
}

const net::Topology& SweepEngine::TopologyFor(std::uint64_t base_seed,
                                              double degree) {
  const auto key = std::make_pair(base_seed, degree);
  {
    std::shared_lock<std::shared_mutex> lk(topo_mu_);
    auto it = topos_.find(key);
    if (it != topos_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lk(topo_mu_);
  auto it = topos_.find(key);
  if (it == topos_.end()) {
    // Deterministic in (degree, seed): whichever thread generates first
    // produces the value every other thread would have.
    net::Topology topo;
    if (spec_.topo_model == "hier") {
      net::HierConfig hc = spec_.hier;
      hc.seed = base_seed;
      hc.srlg_groups = spec_.srlg_groups;
      topo = net::MakeHierarchical(hc);
    } else {
      topo = sim::MakePaperTopology(degree, base_seed, spec_.srlg_groups);
    }
    it = topos_.emplace(key, std::make_unique<net::Topology>(std::move(topo)))
             .first;
  }
  return *it->second;
}

const sim::Scenario& SweepEngine::ScenarioFor(std::uint64_t base_seed,
                                              double degree,
                                              sim::TrafficPattern pattern,
                                              double lambda) {
  const auto key = std::make_tuple(base_seed, degree, pattern, lambda);
  {
    std::shared_lock<std::shared_mutex> lk(scenario_mu_);
    auto it = scenarios_.find(key);
    if (it != scenarios_.end()) return *it->second;
  }
  const net::Topology& topo = TopologyFor(base_seed, degree);
  std::unique_lock<std::shared_mutex> lk(scenario_mu_);
  auto it = scenarios_.find(key);
  if (it == scenarios_.end()) {
    sim::TrafficConfig tc =
        sim::MakePaperTraffic(pattern, lambda, base_seed + 1000);
    tc.duration = duration_;
    if (spec_.fast) {
      // Shrink lifetimes with the horizon but scale λ up by the same
      // factor so the offered load λ·E[lifetime] matches the full run.
      const double shrink = duration_ / sim::kPaperDuration;
      tc.lifetime_min *= shrink;
      tc.lifetime_max *= shrink;
      tc.lambda = lambda / shrink;
    }
    auto sc = std::make_unique<sim::Scenario>(
        sim::Scenario::Generate(topo, tc));
    if (spec_.failures > 0) {
      sim::InjectLinkFailures(*sc, topo, spec_.failures, duration_ * 0.4,
                              duration_ * 0.95, spec_.mttr, base_seed + 55);
    }
    if (spec_.node_failures > 0 || spec_.srlg_failures > 0 ||
        spec_.bursts > 0) {
      fault::CampaignConfig cc;
      cc.node_failures = spec_.node_failures;
      cc.srlg_failures = spec_.srlg_failures;
      cc.bursts = spec_.bursts;
      cc.burst_size = spec_.burst_size;
      cc.t_begin = duration_ * 0.4;
      cc.t_end = duration_ * 0.95;
      cc.mttr = spec_.mttr;
      cc.seed = base_seed + 77;  // distinct stream from link failures
      fault::MakeCampaign(topo, cc).InjectInto(*sc);
    }
    it = scenarios_.emplace(key, std::move(sc)).first;
  }
  return *it->second;
}

CellResult SweepEngine::RunCell(const Cell& cell, obs::TraceSink* trace) {
  const net::Topology& topo = TopologyFor(cell.base_seed, cell.degree);
  const sim::Scenario& scenario =
      ScenarioFor(cell.base_seed, cell.degree, cell.pattern, cell.lambda);
  auto scheme = sim::MakeScheme(cell.scheme, topo, cell.cell_seed);
  sim::ExperimentConfig ec = Experiment();
  ec.trace = trace;
  ec.trace_cell = static_cast<std::int64_t>(cell.index);
  std::unique_ptr<fault::Auditor> auditor;
  std::ostringstream audit_os;
  if (spec_.audit) {
    // Full audits are O(links · connections); cap the periodic ones at
    // ~256 per cell (forced audits — failures and the final event — run
    // regardless). The stride depends only on the scenario, so results
    // stay deterministic for any --jobs.
    fault::AuditorOptions ao;
    ao.stride = 1 + static_cast<int>(scenario.events.size() / 256);
    ao.cell = static_cast<std::int64_t>(cell.index);
    ao.out = &audit_os;
    ao.require_srlg_disjoint = scheme->requires_srlg_disjoint_backup();
    auditor = std::make_unique<fault::Auditor>(ao);
    ec.after_event = [&auditor](const core::DrtpNetwork& net, Time t,
                                std::string_view event,
                                const core::SwitchoverReport* report) {
      auditor->Check(net, t, event, report);
    };
  }
  const double t0 = MonotonicSeconds();
  CellResult r;
  r.cell = cell;
  // The replay runs entirely on this thread, so the thread-shard counter
  // delta is exactly this cell's event counts — deterministic regardless
  // of --jobs.
  const obs::ThreadCounterBaseline baseline;
  r.metrics = sim::RunScenario(topo, scenario, *scheme, ec);
  r.obs_counters = baseline.Delta();
  std::erase_if(r.obs_counters, [](const auto& counter) {
    return std::ranges::find(kResultObsTags, counter.first) ==
           std::end(kResultObsTags);
  });
  r.wall_seconds = MonotonicSeconds() - t0;
  if (auditor != nullptr) {
    r.audit_checks = auditor->checks();
    r.audit_violations = auditor->violation_count();
    r.audit_jsonl = audit_os.str();
  }
  return r;
}

std::vector<CellResult> SweepEngine::Run(const RunOptions& options) {
  std::vector<Cell> cells = Cells();
  if (options.only.has_value()) {
    // Narrow to the requested subset, keeping grid (index) order so the
    // returned vector and any ordered sink output stay canonical.
    std::vector<bool> wanted(cells.size(), false);
    for (const std::size_t index : *options.only) {
      DRTP_CHECK_MSG(index < cells.size(),
                     "cell " << index << " outside the " << cells.size()
                             << "-cell grid");
      DRTP_CHECK_MSG(!wanted[index], "cell " << index << " selected twice");
      wanted[index] = true;
    }
    std::size_t kept = 0;
    for (const Cell& cell : cells) {
      if (wanted[cell.index]) cells[kept++] = cell;
    }
    cells.resize(kept);
  }
  std::vector<CellResult> results(cells.size());

  std::vector<ResultSink*> sinks = options.sinks;
  std::unique_ptr<ProgressReporter> progress;
  if (options.progress) {
    progress = std::make_unique<ProgressReporter>(cells.size());
    sinks.push_back(progress.get());
  }

  {
    ThreadPool pool(ThreadPool::Options{.threads = options.jobs});
    for (std::size_t slot = 0; slot < cells.size(); ++slot) {
      pool.Submit([this, slot, &cells, &results, &sinks, &options] {
        CellResult r = RunCell(cells[slot], options.trace);
        for (ResultSink* sink : sinks) sink->Consume(r);
        // Cells own distinct slots; no lock needed.
        results[slot] = std::move(r);
      });
    }
    // Crash safety: even when a cell throws, every completed cell has
    // already been pushed to the sinks — drain the pool, Finish() the
    // sinks so buffered output (tables, final flushes) reaches disk, and
    // only then propagate the failure.
    std::exception_ptr failure;
    try {
      pool.Wait();  // rethrows the first failed cell
    } catch (...) {
      failure = std::current_exception();
    }
    try {
      pool.Shutdown();  // queued cells still finish (and reach the sinks)
    } catch (...) {
      if (failure == nullptr) failure = std::current_exception();
    }
    // A Finish() that throws (its stream lost output) must not skip the
    // other sinks' flushes.
    const auto finish = [&failure](auto* sink) {
      try {
        sink->Finish();
      } catch (...) {
        if (failure == nullptr) failure = std::current_exception();
      }
    };
    for (ResultSink* sink : sinks) finish(sink);
    if (options.trace != nullptr) finish(options.trace);
    if (failure != nullptr) std::rethrow_exception(failure);
  }
  return results;
}

}  // namespace drtp::runner
