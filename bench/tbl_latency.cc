// Service-recovery latency: proactive DRTP vs reactive re-establishment.
//
// §1's motivation for DRTP: reactive recovery "may require several trials
// to succeed, thus delaying service resumption", with recovery taking
// "several seconds or longer, especially in heavily-loaded networks",
// while a pre-established backup activates immediately. This harness
// measures both modes with the timed protocol engine: detection (20 ms) +
// hop-by-hop reporting + activation for DRTP, versus route re-discovery,
// timed setup and jittered exponential-backoff retries for reactive.
#include <cmath>

#include "bench_common.h"
#include "drtp/drtp.h"
#include "proto/engine.h"
#include "sim/event_queue.h"

namespace {

using namespace drtp;

struct ModeResult {
  Ratio recovered;
  RunningStat latency;  // seconds, successful recoveries only
};

/// Fills the network with `target` D-LSR connections (backups only in
/// proactive mode), fails one random loaded link, and runs the timed
/// recovery to completion.
ModeResult RunTrials(const net::Topology& topo, int target, int trials,
                     proto::RecoveryMode mode, std::uint64_t seed) {
  ModeResult result;
  for (int trial = 0; trial < trials; ++trial) {
    core::DrtpNetwork net(topo);
    lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
    core::Dlsr dlsr;
    Rng rng(seed + static_cast<std::uint64_t>(trial) * 977);
    const auto n = static_cast<std::size_t>(topo.num_nodes());
    for (ConnId id = 0; id < target; ++id) {
      const NodeId src = static_cast<NodeId>(rng.Index(n));
      NodeId dst = static_cast<NodeId>(rng.Index(n));
      if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
      net.PublishTo(db, 0.0);
      const auto sel = dlsr.SelectRoutes(net, db, src, dst, Mbps(1));
      if (sel.primary &&
          net.EstablishConnection(id, *sel.primary, Mbps(1), 0.0)) {
        if (mode == proto::RecoveryMode::kProactive && sel.backup) {
          net.RegisterBackup(id, *sel.backup);
        }
      }
    }
    // Fail a random link that carries at least one primary.
    std::vector<LinkId> loaded;
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      if (!net.PrimaryConnsOn(l).empty()) loaded.push_back(l);
    }
    if (loaded.empty()) continue;
    const LinkId victim = loaded[rng.Index(loaded.size())];

    sim::EventQueue queue;
    proto::ProtocolConfig pc;
    pc.seed = seed + static_cast<std::uint64_t>(trial);
    proto::ProtocolEngine engine(net, queue, pc, &dlsr, &db);
    queue.Schedule(10.0, [&] { engine.InjectLinkFailure(victim, mode); });
    queue.RunAll();
    for (const auto& r : engine.recoveries()) {
      result.recovered.Add(r.success);
      if (r.success) result.latency.Add(r.latency());
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drtp;
  FlagSet flags("tbl_latency");
  const auto opts = bench::HarnessOptions::Register(flags);
  auto& degree = flags.Double("degree", 3.0, "average node degree");
  auto& trials = flags.Int64("trials", 25, "failure trials per cell");
  flags.Parse(argc, argv);
  const int trial_count = *opts.fast ? 8 : static_cast<int>(trials);

  const net::Topology topo =
      sim::MakePaperTopology(degree, static_cast<std::uint64_t>(*opts.seed));
  // Capacity-scaled load targets: light / moderate / heavy.
  const int cap_conns = topo.num_links() * 30 / 4;  // rough carrying capacity

  std::printf("Recovery latency — proactive DRTP vs reactive"
              " re-establishment (E = %.0f, D-LSR routing, %d trials)\n\n",
              degree, trial_count);
  TextTable t({"load", "mode", "affected", "recovered", "lat mean ms",
               "lat max ms"});
  for (const double load_frac : {0.3, 0.6, 0.9}) {
    const int target = static_cast<int>(std::lround(cap_conns * load_frac));
    for (const auto mode :
         {proto::RecoveryMode::kProactive, proto::RecoveryMode::kReactive}) {
      const ModeResult r = RunTrials(
          topo, target, trial_count, mode,
          static_cast<std::uint64_t>(*opts.seed) + 31);
      t.BeginRow();
      char label[32];
      std::snprintf(label, sizeof label, "%.0f%%", 100 * load_frac);
      t.Cell(std::string(label));
      t.Cell(mode == proto::RecoveryMode::kProactive ? "DRTP (proactive)"
                                                     : "reactive");
      t.Cell(r.recovered.trials);
      t.Cell(r.recovered.value(), 4);
      t.Cell(r.latency.mean() * 1000.0, 2);
      t.Cell(r.latency.max() * 1000.0, 2);
    }
  }
  std::fputs(t.Render().c_str(), stdout);
  std::printf("\nReading: DRTP restores service in tens of milliseconds"
              " regardless of load; reactive recovery slows (retries,"
              " backoff)\nand fails more as the network fills — the paper's"
              " §1 motivation, measured.\n");
  return 0;
}
