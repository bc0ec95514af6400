// Single-link failure evaluation and channel switchover (DRTP steps 2–4).
//
// The paper's fault-tolerance metric P_bk is "the probability of activating
// a backup channel when the corresponding primary channel is disabled by a
// single link failure" (§6.2). EvaluateLinkFailure answers the what-if
// question without touching state; ApplyLinkFailure actually performs
// failure reporting, channel switching and resource reconfiguration.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "drtp/network.h"
#include "drtp/scheme.h"

namespace drtp::core {

/// Outcome of hypothetically failing one link.
struct FailureImpact {
  /// Connections whose primary traverses the failed link.
  int attempts = 0;
  /// Of those, how many could activate their backup: the backup exists,
  /// avoids the failed link, and every backup link seats the activation
  /// within spare + free bandwidth under contention (conflicting
  /// activations are admitted in connection-id order).
  int activated = 0;
};

/// What-if analysis of failing `failed` (plus its reverse under
/// duplex_failures). Non-mutating. Walks only the connections the
/// network's link→connection reverse index reports on the failed links,
/// not the whole connection table.
///
/// Affected connections contend in ascending id order: each takes the
/// first backup that avoids the failure, has every link up and fits into
/// what is left of spare + free bandwidth, and then, switched or dropped,
/// returns its old primary's bandwidth to the pool. ApplyLinkSetFailure
/// enacts the same rule.
FailureImpact EvaluateLinkFailure(const DrtpNetwork& net, LinkId failed);

/// EvaluateLinkFailure plus the per-connection outcome, for cross-checking
/// the what-if analysis against what ApplyLinkFailure enacts.
struct FailureImpactDetail {
  FailureImpact impact;
  /// Connections that would activate a backup, ascending id.
  std::vector<ConnId> activated;
  /// Affected connections with no activatable backup, ascending id.
  std::vector<ConnId> dropped;
};
FailureImpactDetail EvaluateLinkFailureDetailed(const DrtpNetwork& net,
                                                LinkId failed);

/// What one EvaluateAllSingleLinkFailures call decided, and how. Also
/// added to the obs counters drtp.failure_sweep.{failed_sets,contended}.
struct FailureSweepStats {
  /// Failed sets (links, or duplex pairs) that disable at least one
  /// primary.
  int failed_sets = 0;
  /// Of those, how many the spare-sizing bound could not decide, so the
  /// contention walk did.
  int contended = 0;
};

/// Aggregates EvaluateLinkFailure over every up link (each duplex pair
/// once under duplex_failures); links that disable no primary contribute
/// nothing. The Ratio's value() is P_bk.
///
/// Exact, but it skips the contention walk wherever §5's spare sizing
/// already decides the outcome. One ordered pass over the connection
/// table finds, per affected connection and failed set F, the first
/// backup b* that is all-up and avoids F. If every link l of b* holds
/// spare + free ≥ Σ_{f∈F} demand_l[f], b* activates whatever the id
/// order. A set where some b* fails that test is contended: only those
/// sets run the walk EvaluateLinkFailure runs, over one image of just
/// their connections. Debug builds re-walk every other set and check
/// the verdicts agree.
///
/// When `per_link` is non-null it is resized to num_links and entry l
/// receives EvaluateLinkFailure(net, l) for every up link l (both halves
/// of a duplex pair get the pair's impact); down links stay zero. When
/// `stats` is non-null it receives the call's FailureSweepStats.
Ratio EvaluateAllSingleLinkFailures(
    const DrtpNetwork& net, std::vector<FailureImpact>* per_link = nullptr,
    FailureSweepStats* stats = nullptr);

/// Result of actually failing a link.
struct SwitchoverReport {
  /// Connections whose backup was promoted to primary (step 3).
  std::vector<ConnId> recovered;
  /// Connections lost: primary hit and no activatable backup.
  std::vector<ConnId> dropped;
  /// Connections whose *backup* (not primary) traversed the failed link;
  /// the broken backup was released.
  std::vector<ConnId> backups_lost;
  /// Connections for which step 4 established a fresh backup (recovered
  /// or backup-lost ones; requires a reroute scheme).
  std::vector<ConnId> rerouted;
};

/// Whether `backup` protects `primary` at all: it must leave at least one
/// primary link uncovered. Schemes shun rather than forbid primary links,
/// so under scarcity the cheapest "backup" can cover every primary link,
/// and any primary failure then takes it down too. Partial overlap is the
/// usual penalized tradeoff and passes.
bool Protects(const routing::Path& backup, const routing::Path& primary);

/// Step 4 of §2.2 (resource reconfiguration) for one unprotected
/// connection `id`: publishes `net` to `db` at `now`, asks `scheme` for a
/// backup of the primary, and registers it if it Protects the primary and
/// crosses no down link. Returns RegisterBackup's overbooked hop count, or
/// nullopt when nothing was registered — the connection then runs
/// unprotected, and retrying later is the caller's policy.
std::optional<int> Reprotect(DrtpNetwork& net, lsdb::LinkStateDb& db,
                             RoutingScheme& scheme, ConnId id, Time now);

/// The links failing `links` takes down: the members still up plus, under
/// duplex_failures, their reverses still up; ascending, each once.
std::vector<LinkId> FailedLinkSet(const DrtpNetwork& net,
                                  std::span<const LinkId> links);

/// Fails `failed` for real: marks it down, releases broken backups,
/// switches affected primaries to their backups (dropping those that
/// cannot activate), and — when `reroute` is non-null — runs Reprotect
/// for every connection left unprotected, using routes from `reroute`
/// against the refreshed advertisements in `db`.
SwitchoverReport ApplyLinkFailure(DrtpNetwork& net, LinkId failed, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db);

/// Fails the FailedLinkSet of `links` as ONE correlated event: the whole
/// set goes down before any backup is released or promoted, so a
/// connection crossing several failed links is switched exactly once and
/// never onto a co-failed backup. This is the primitive behind node
/// (IncidentLinks) and SRLG (LinksInSrlg) failures.
SwitchoverReport ApplyLinkSetFailure(DrtpNetwork& net,
                                     std::span<const LinkId> links, Time now,
                                     RoutingScheme* reroute,
                                     lsdb::LinkStateDb* db);

/// Fails shared-risk group `srlg`: every member link goes down together.
SwitchoverReport ApplySrlgFailure(DrtpNetwork& net, SrlgId srlg, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db);

/// All directed links incident to `node` (out + in), ascending.
std::vector<LinkId> IncidentLinks(const net::Topology& topo, NodeId node);

/// What-if SRLG fate-sharing: over every protected connection and every
/// risk group its primary crosses, the fraction of cases where the backup
/// touches *no* link of that group — i.e. the probability the backup
/// structurally survives the correlated failure that disabled the
/// primary. 1 − value() is the primary+backup co-failure rate; hard-mode
/// SRLG-disjoint schemes score exactly 1. Zero trials on untagged
/// topologies.
Ratio EvaluateSrlgSurvival(const DrtpNetwork& net);

}  // namespace drtp::core
