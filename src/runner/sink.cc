#include "runner/sink.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/digest.h"
#include "common/json.h"
#include "runner/checkpoint.h"

namespace drtp::runner {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteStat(JsonWriter& w, const RunningStat& s) {
  w.BeginObject();
  w.Key("count").Int(s.count());
  w.Key("mean").Double(s.mean());
  w.Key("stddev").Double(s.stddev());
  w.Key("min").Double(s.min());
  w.Key("max").Double(s.max());
  w.EndObject();
}

}  // namespace

void WriteRunMetrics(JsonWriter& w, const sim::RunMetrics& m) {
  w.Key("scheme").String(m.scheme);
  w.Key("requests").Int(m.requests);
  w.Key("admitted").Int(m.admitted);
  w.Key("blocked").Int(m.blocked);
  w.Key("with_backup").Int(m.with_backup);
  w.Key("acceptance_ratio").Double(m.AcceptanceRatio());
  w.Key("pbk").BeginObject();
  w.Key("hits").Int(m.pbk.hits);
  w.Key("trials").Int(m.pbk.trials);
  w.Key("value").Double(m.pbk.value());
  w.EndObject();
  if (m.pbk_srlg.trials > 0) {
    // Only sampled on SRLG-tagged topologies; omitting the key keeps
    // SRLG-free runs byte-identical to pre-SRLG output.
    w.Key("pbk_srlg").BeginObject();
    w.Key("hits").Int(m.pbk_srlg.hits);
    w.Key("trials").Int(m.pbk_srlg.trials);
    w.Key("value").Double(m.pbk_srlg.value());
    w.EndObject();
  }
  w.Key("avg_active").Double(m.avg_active);
  w.Key("prime_bw_kbps");
  WriteStat(w, m.prime_bw);
  w.Key("spare_bw_kbps");
  WriteStat(w, m.spare_bw);
  w.Key("primary_hops");
  WriteStat(w, m.primary_hops);
  w.Key("backup_hops");
  WriteStat(w, m.backup_hops);
  w.Key("backup_overlap_links").Int(m.backup_overlap_links);
  w.Key("control_messages").Int(m.control_messages);
  w.Key("control_bytes").Int(m.control_bytes);
  w.Key("overbooked_hops").Int(m.overbooked_hops);
  w.Key("failures_enacted").Int(m.failures_enacted);
  w.Key("failover_recovered").Int(m.failover_recovered);
  w.Key("failover_dropped").Int(m.failover_dropped);
  w.Key("backups_broken").Int(m.backups_broken);
  w.Key("backups_reestablished").Int(m.backups_reestablished);
  w.Key("degraded").Int(m.degraded);
  w.Key("reprotect_retries").Int(m.reprotect_retries);
  w.Key("reprotect_recovered").Int(m.reprotect_recovered);
  w.Key("reprotect_exhausted").Int(m.reprotect_exhausted);
  w.Key("enacted_recovery_ratio").Double(m.EnactedRecoveryRatio());
  w.Key("measure_start").Double(m.measure_start);
  w.Key("measure_end").Double(m.measure_end);
}

std::string CellResultToJson(const CellResult& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kJsonlSchema);
  w.Key("cell").Int(static_cast<std::int64_t>(r.cell.index));
  w.Key("seed").Uint(r.cell.base_seed);
  w.Key("cell_seed").Uint(r.cell.cell_seed);
  w.Key("degree").Double(r.cell.degree);
  if (r.cell.topo_model != "waxman") {
    w.Key("model").String(r.cell.topo_model);
  }
  w.Key("pattern").String(sim::PatternName(r.cell.pattern));
  w.Key("lambda").Double(r.cell.lambda);
  w.Key("scheme").String(r.cell.scheme);
  w.Key("wall_s").Double(r.wall_seconds);
  if (r.audit_checks > 0) {
    w.Key("audit").BeginObject();
    w.Key("checks").Int(r.audit_checks);
    w.Key("violations").Int(r.audit_violations);
    w.EndObject();
  }
  if (!r.obs_counters.empty()) {
    w.Key("obs").BeginObject();
    for (const auto& [name, count] : r.obs_counters) w.Key(name).Int(count);
    w.EndObject();
  }
  w.Key("metrics").BeginObject();
  WriteRunMetrics(w, r.metrics);
  w.EndObject();
  w.EndObject();
  return w.str();
}

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

JsonlSink::JsonlSink(const std::string& path) : JsonlSink(path, true) {}

JsonlSink::JsonlSink(const std::string& path, bool append)
    : owned_(std::make_unique<std::ofstream>(
          path, append ? (std::ios::out | std::ios::app)
                       : (std::ios::out | std::ios::trunc))) {
  DRTP_CHECK_MSG(owned_->good(), "cannot open '" << path << "' for "
                                                 << (append ? "append"
                                                            : "write"));
  os_ = owned_.get();
}

void JsonlSink::AttachJournal(CheckpointJournal* journal) {
  journal_ = journal;
}

void JsonlSink::Consume(const CellResult& result) {
  // Render outside the lock, newline included, then push the whole line
  // as ONE write + flush under it: lines from concurrent cells never
  // interleave, and a crash-truncated file loses at most the (partial)
  // line in flight — every preceding line is complete and parseable.
  std::string line = CellResultToJson(result);
  line += '\n';
  std::lock_guard<std::mutex> lk(mu_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  os_->flush();
  DRTP_CHECK_MSG(os_->good(), "cannot write result line for cell "
                                  << result.cell.index);
  ++lines_;
  if (journal_ != nullptr) {
    // Same mutex, strictly after the line's flush: on a kill the journal
    // can only be missing the final line's entry, never ahead of the
    // sink, which is the invariant RecoverCheckpoint rebuilds from.
    CheckpointEntry entry;
    entry.cell = result.cell.index;
    entry.cell_seed = result.cell.cell_seed;
    entry.digest = Fnv1a(line);
    entry.audit_checks = result.audit_checks;
    entry.audit_violations = result.audit_violations;
    entry.audit_jsonl = result.audit_jsonl;
    journal_->Append(entry);
  }
}

void JsonlSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  os_->flush();
  DRTP_CHECK_MSG(os_->good(), "cannot write result lines");
}

TableSink::TableSink(std::ostream& os) : os_(os) {}

void TableSink::Consume(const CellResult& result) {
  std::lock_guard<std::mutex> lk(mu_);
  results_.push_back(result);
}

void TableSink::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  std::sort(results_.begin(), results_.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.cell.index < b.cell.index;
            });
  TextTable t({"seed", "E", "pattern", "lambda", "scheme", "req", "admit",
               "accept", "P_bk", "P_bk_slg", "recov", "avg_act",
               "prime_Mbps", "spare_Mbps", "wall_s"});
  for (const CellResult& r : results_) {
    t.BeginRow();
    t.Cell(static_cast<std::int64_t>(r.cell.base_seed));
    t.Cell(r.cell.degree, 0);
    t.Cell(sim::PatternName(r.cell.pattern));
    t.Cell(r.cell.lambda, 2);
    t.Cell(r.cell.scheme);
    t.Cell(r.metrics.requests);
    t.Cell(r.metrics.admitted);
    t.Cell(r.metrics.AcceptanceRatio(), 3);
    t.Cell(r.metrics.pbk.value(), 4);
    // "--" on SRLG-free topologies / when no failure hit a primary.
    t.Cell(r.metrics.pbk_srlg.trials == 0
               ? std::numeric_limits<double>::quiet_NaN()
               : r.metrics.pbk_srlg.value(),
           4);
    t.Cell(r.metrics.EnactedRecoveryRatio(), 4);
    t.Cell(r.metrics.avg_active, 1);
    t.Cell(r.metrics.prime_bw.mean() / 1000.0, 1);
    t.Cell(r.metrics.spare_bw.mean() / 1000.0, 1);
    t.Cell(r.wall_seconds, 2);
  }
  os_ << t.Render();
  os_.flush();
}

ProgressReporter::ProgressReporter(std::size_t total_cells)
    : total_(total_cells), start_seconds_(MonotonicSeconds()) {
  const obs::Registry& reg = obs::Registry::Global();
  admits0_ = reg.CounterValue(admits_);
  blocks0_ = reg.CounterValue(blocks_);
  failovers0_ = reg.CounterValue(failovers_);
}

void ProgressReporter::Consume(const CellResult& result) {
  (void)result;
  std::lock_guard<std::mutex> lk(mu_);
  ++done_;
  const double elapsed = MonotonicSeconds() - start_seconds_;
  const double rate = elapsed > 0.0 ? static_cast<double>(done_) / elapsed
                                    : 0.0;
  const double eta =
      rate > 0.0 ? static_cast<double>(total_ - done_) / rate : 0.0;
  const obs::Registry& reg = obs::Registry::Global();
  const std::int64_t admits = reg.CounterValue(admits_) - admits0_;
  const std::int64_t blocks = reg.CounterValue(blocks_) - blocks0_;
  const std::int64_t failovers = reg.CounterValue(failovers_) - failovers0_;
  const double admit_rate =
      elapsed > 0.0 ? static_cast<double>(admits) / elapsed : 0.0;
  std::fprintf(stderr,
               "\r[sweep] %zu/%zu cells  %.2f cells/s  ETA %.0fs  "
               "%.0f admits/s  %lld blocks  %lld failovers   ",
               done_, total_, rate, eta, admit_rate,
               static_cast<long long>(blocks),
               static_cast<long long>(failovers));
  if (done_ == total_) std::fputc('\n', stderr);
  std::fflush(stderr);
}

void ProgressReporter::Finish() {
  std::lock_guard<std::mutex> lk(mu_);
  if (done_ != total_) std::fputc('\n', stderr);
}

}  // namespace drtp::runner
