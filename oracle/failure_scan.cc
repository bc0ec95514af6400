#include "oracle/failure_scan.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

namespace drtp::oracle {
namespace {

/// The set of links taken down by failing `l` (one, or both halves of the
/// duplex pair under duplex_failures).
std::vector<LinkId> FailedSet(const core::DrtpNetwork& net, LinkId l) {
  std::vector<LinkId> failed{l};
  if (net.config().duplex_failures) {
    const LinkId rev = net.topology().link(l).reverse;
    if (rev != kInvalidLink) failed.push_back(rev);
  }
  return failed;
}

bool UsesAny(const routing::Path& path, std::span<const LinkId> links) {
  return std::any_of(links.begin(), links.end(),
                     [&](LinkId l) { return path.Contains(l); });
}

int Occurrences(const routing::Path& path, LinkId link) {
  int n = 0;
  for (LinkId l : path.links()) {
    if (l == link) ++n;
  }
  return n;
}

/// True iff `links[i]` did not already appear at an earlier position —
/// capacity checks visit each distinct link of a path exactly once.
bool FirstOccurrence(std::span<const LinkId> links, std::size_t i) {
  for (std::size_t k = 0; k < i; ++k) {
    if (links[k] == links[i]) return false;
  }
  return true;
}

/// Whether promoting `backup` can succeed for a connection whose current
/// primary is `primary`: per distinct backup link, the remaining
/// spare+free bandwidth plus the connection's own primary release must
/// cover the promoted route's demand.
template <typename AvailableFn>
bool ActivationFits(const routing::Path& backup, const routing::Path& primary,
                    Bandwidth bw, AvailableFn&& available) {
  const std::span<const LinkId> links = backup.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkId l = links[i];
    if (!FirstOccurrence(links, i)) continue;
    const Bandwidth credit = bw * Occurrences(primary, l);
    const Bandwidth need = bw * Occurrences(backup, l);
    if (available(l) + credit < need) return false;
  }
  return true;
}

}  // namespace

core::FailureImpactDetail EvaluateLinkFailureScanDetailed(
    const core::DrtpNetwork& net, LinkId failed) {
  const std::vector<LinkId> failed_set = FailedSet(net, failed);

  core::FailureImpactDetail detail;
  core::FailureImpact& impact = detail.impact;
  std::unordered_map<LinkId, Bandwidth> remaining;
  const auto available = [&](LinkId l) -> Bandwidth& {
    auto [it, fresh] = remaining.try_emplace(l, 0);
    if (fresh) it->second = net.ledger().spare(l) + net.ledger().free(l);
    return it->second;
  };

  // net.connections() is an ordered map, so this visits the affected
  // connections in id order: the contention order the indexed evaluator
  // and the enacted switchover resolve activations in.
  for (const auto& [id, conn] : net.connections()) {
    if (!UsesAny(conn.primary, failed_set)) continue;
    ++impact.attempts;
    const routing::Path* chosen = nullptr;
    for (const routing::Path& backup : conn.backups) {
      if (UsesAny(backup, failed_set)) continue;
      bool up = true;
      for (LinkId l : backup.links()) {
        if (!net.IsLinkUp(l)) {
          up = false;
          break;
        }
      }
      if (!up) continue;
      if (!ActivationFits(backup, conn.primary, conn.bw, available)) {
        continue;
      }
      chosen = &backup;
      break;
    }
    for (LinkId l : conn.primary.links()) available(l) += conn.bw;
    if (chosen != nullptr) {
      for (LinkId l : chosen->links()) available(l) -= conn.bw;
      ++impact.activated;
    }
    (chosen != nullptr ? detail.activated : detail.dropped).push_back(id);
  }
  return detail;
}

core::FailureImpact EvaluateLinkFailureScan(const core::DrtpNetwork& net,
                                            LinkId failed) {
  return EvaluateLinkFailureScanDetailed(net, failed).impact;
}

Ratio EvaluateAllSingleLinkFailuresScan(const core::DrtpNetwork& net) {
  Ratio ratio;
  const net::Topology& topo = net.topology();
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (!net.IsLinkUp(l)) continue;
    if (net.config().duplex_failures) {
      const LinkId rev = topo.link(l).reverse;
      if (rev != kInvalidLink && rev < l) continue;
    }
    const core::FailureImpact impact = EvaluateLinkFailureScan(net, l);
    ratio.AddMany(impact.activated, impact.attempts);
  }
  return ratio;
}

}  // namespace drtp::oracle
