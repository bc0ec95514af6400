// Remote-surgery scenario: the paper's motivating "remote medical
// services" application (§1).
//
// A hospital hub receives dependable real-time streams (haptics, video,
// vitals) from clinics across a 60-node metro network. Streams are routed
// with D-LSR; mid-session we cut a fiber on the busiest corridor and show
// that every affected stream switches to its pre-established backup within
// the same control round, then re-protects itself (DRTP step 4).
//
//   $ ./telesurgery [--seed N] [--streams N]
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "drtp/drtp.h"
#include "sim/paper.h"

using namespace drtp;

int main(int argc, char** argv) {
  FlagSet flags("telesurgery");
  auto& seed = flags.Int64("seed", 7, "topology/workload seed");
  auto& streams = flags.Int64("streams", 40, "concurrent patient streams");
  flags.Parse(argc, argv);

  // Metro network: 60 nodes, average degree 4 (well-connected city core).
  core::DrtpNetwork net(
      sim::MakePaperTopology(4.0, static_cast<std::uint64_t>(seed)));
  lsdb::LinkStateDb db(net.topology().num_links(), net.topology().num_links());
  core::Dlsr dlsr;
  Rng rng(static_cast<std::uint64_t>(seed) + 1);

  const NodeId hospital = 0;
  std::printf("== telesurgery: %lld DR-streams into hospital node %d ==\n",
              static_cast<long long>(streams), hospital);

  std::vector<ConnId> admitted;
  int unprotected = 0;
  for (ConnId id = 1; id <= streams; ++id) {
    NodeId clinic = static_cast<NodeId>(
        rng.Index(static_cast<std::size_t>(net.topology().num_nodes())));
    if (clinic == hospital) clinic = hospital + 1;
    net.PublishTo(db, 0.0);
    const auto sel = dlsr.SelectRoutes(net, db, clinic, hospital, Mbps(1));
    if (!sel.primary ||
        !net.EstablishConnection(id, *sel.primary, Mbps(1), 0.0)) {
      std::printf("stream %lld from clinic %d: BLOCKED\n",
                  static_cast<long long>(id), clinic);
      continue;
    }
    if (sel.backup) {
      net.RegisterBackup(id, *sel.backup);
    } else {
      ++unprotected;
    }
    admitted.push_back(id);
  }
  std::printf("admitted %zu streams (%d unprotected)\n", admitted.size(),
              unprotected);
  std::printf("spare bandwidth reserved: %lld kbps for %lld kbps of primary"
              " traffic (%.1f%% overhead)\n",
              static_cast<long long>(net.ledger().TotalSpare()),
              static_cast<long long>(net.ledger().TotalPrime()),
              100.0 * static_cast<double>(net.ledger().TotalSpare()) /
                  static_cast<double>(net.ledger().TotalPrime()));

  // Pre-failure dependability audit.
  const Ratio pbk = core::EvaluateAllSingleLinkFailures(net);
  std::printf("dependability audit: P_bk = %.3f over %lld single-link"
              " failure cases\n",
              pbk.value(), static_cast<long long>(pbk.trials));

  // Cut the busiest link (most primaries).
  LinkId busiest = 0;
  std::size_t most = 0;
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    const auto count = net.PrimaryConnsOn(l).size();
    if (count > most) {
      most = count;
      busiest = l;
    }
  }
  std::printf("\n== fiber cut on link %d (%d -> %d), carrying %zu"
              " primaries ==\n",
              busiest, net.topology().link(busiest).src,
              net.topology().link(busiest).dst, most);
  const auto report = core::ApplyLinkFailure(net, busiest, 10.0, &dlsr, &db);
  std::printf("channel switching: %zu streams promoted their backup, %zu"
              " dropped, %zu broken backups released\n",
              report.recovered.size(), report.dropped.size(),
              report.backups_lost.size());
  std::printf("resource reconfiguration: %zu streams re-protected with new"
              " backups\n", report.rerouted.size());

  // Post-failure audit: the network must still be dependable.
  const Ratio pbk_after = core::EvaluateAllSingleLinkFailures(net);
  std::printf("post-failure audit: P_bk = %.3f\n", pbk_after.value());
  net.CheckConsistency();

  const double survived =
      static_cast<double>(admitted.size() - report.dropped.size()) /
      static_cast<double>(admitted.size());
  std::printf("\n%.1f%% of streams survived the cut without"
              " re-establishment. done.\n", 100.0 * survived);
  return 0;
}
