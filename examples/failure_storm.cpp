// Failure storm: sequential link failures with full DRTP recovery
// (detection -> switching -> resource reconfiguration), the §1 "command &
// control" setting where the network must stay dependable while links keep
// dying.
//
// Loads a 60-node network with DR-connections, then kills one random link
// per round for N rounds. After every round the damaged network re-protects
// itself; we track survivors, failovers and the dependability audit.
//
//   $ ./failure_storm [--rounds N] [--load N] [--seed N]
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "drtp/drtp.h"
#include "sim/paper.h"

using namespace drtp;

int main(int argc, char** argv) {
  FlagSet flags("failure_storm");
  auto& rounds = flags.Int64("rounds", 8, "number of link failures");
  auto& load = flags.Int64("load", 150, "connections to establish");
  auto& seed = flags.Int64("seed", 3, "seed");
  flags.Parse(argc, argv);

  core::DrtpNetwork net(
      sim::MakePaperTopology(4.0, static_cast<std::uint64_t>(seed)));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  core::Plsr plsr;  // P-LSR keeps the storm cheap: only L1 norms advertised
  core::BoundedFlooding bf(net.topology());
  Rng rng(static_cast<std::uint64_t>(seed) + 99);

  // Load the network.
  int admitted = 0;
  for (ConnId id = 1; id <= load; ++id) {
    const NodeId src = static_cast<NodeId>(rng.Index(60));
    NodeId dst = static_cast<NodeId>(rng.Index(60));
    if (dst == src) dst = (dst + 1) % 60;
    net.PublishTo(db, 0.0);
    const auto sel = plsr.SelectRoutes(net, db, src, dst, Mbps(1));
    if (sel.primary && net.EstablishConnection(id, *sel.primary, Mbps(1), 0)) {
      if (sel.backup) net.RegisterBackup(id, *sel.backup);
      ++admitted;
    }
  }
  std::printf("== failure storm: %d connections admitted, %lld rounds ==\n\n",
              admitted, static_cast<long long>(rounds));

  int total_recovered = 0, total_dropped = 0, total_rerouted = 0;
  for (int round = 1; round <= rounds; ++round) {
    // Pick a live link that carries at least one primary, if any.
    std::vector<LinkId> candidates;
    for (LinkId l = 0; l < net.topology().num_links(); ++l) {
      if (net.IsLinkUp(l) && !net.PrimaryConnsOn(l).empty()) {
        candidates.push_back(l);
      }
    }
    if (candidates.empty()) {
      std::printf("round %d: no loaded links left to fail\n", round);
      break;
    }
    const LinkId victim = candidates[rng.Index(candidates.size())];
    const auto report =
        core::ApplyLinkFailure(net, victim, round, &plsr, &db);
    // BF's distance tables would be rebuilt on topology change (§4.1);
    // mirror that here even though this storm routes with P-LSR.
    bf.RebuildDistanceTable(net);
    total_recovered += static_cast<int>(report.recovered.size());
    total_dropped += static_cast<int>(report.dropped.size());
    total_rerouted += static_cast<int>(report.rerouted.size());
    const Ratio pbk = core::EvaluateAllSingleLinkFailures(net);
    std::printf("round %d: failed link %3d | recovered %2zu dropped %2zu"
                " re-protected %2zu | active %3d | P_bk now %.3f\n",
                round, victim, report.recovered.size(),
                report.dropped.size(), report.rerouted.size(),
                net.ActiveCount(), pbk.value());
    net.CheckConsistency();
  }

  std::printf("\nstorm summary: %d failovers, %d connections lost, %d"
              " backups re-established\n",
              total_recovered, total_dropped, total_rerouted);
  std::printf("%d of %d connections still running over %d dead links."
              " done.\n",
              net.ActiveCount(), admitted,
              static_cast<int>(net.down_links().size()));
  return 0;
}
