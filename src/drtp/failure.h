// Single-link failure evaluation and channel switchover (DRTP steps 2–4).
//
// The paper's fault-tolerance metric P_bk is "the probability of activating
// a backup channel when the corresponding primary channel is disabled by a
// single link failure" (§6.2). EvaluateLinkFailure answers the what-if
// question without touching state; ApplyLinkFailure actually performs
// failure reporting, channel switching and resource reconfiguration.
#pragma once

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

/// Aggregates EvaluateLinkFailure over every up link (each duplex pair
/// once under duplex_failures); links that disable no primary contribute
/// nothing. The Ratio's value() is P_bk. One ordered pass over the
/// connection table fills a flat per-thread image that every link's
/// evaluation reads, so the sweep allocates nothing per link.
///
/// When `per_link` is non-null it is resized to num_links and entry l
/// receives EvaluateLinkFailure(net, l) for every up link l (both halves
/// of a duplex pair get the pair's impact); down links stay zero.
Ratio EvaluateAllSingleLinkFailures(
    const DrtpNetwork& net, std::vector<FailureImpact>* per_link = nullptr);

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

/// Fails `failed` for real: marks it down, releases broken backups,
/// switches affected primaries to their backups (dropping those that
/// cannot activate), and — when `reroute` is non-null — re-establishes
/// backups for every connection left unprotected, using routes from
/// `reroute` against the refreshed advertisements in `db`.
SwitchoverReport ApplyLinkFailure(DrtpNetwork& net, LinkId failed, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db);

/// Fails every up link in `links` as ONE correlated event: the whole set
/// goes down before any backup is released or promoted, so a connection
/// crossing several failed links is switched exactly once and never onto a
/// co-failed backup. Links already down are ignored; duplex reverses are
/// included under duplex_failures. This is the primitive behind node and
/// SRLG failures.
SwitchoverReport ApplyLinkSetFailure(DrtpNetwork& net,
                                     std::span<const LinkId> links, Time now,
                                     RoutingScheme* reroute,
                                     lsdb::LinkStateDb* db);

/// Fails `node`: atomically takes down every incident link (both
/// directions), dropping connections that terminate there and switching
/// the rest.
SwitchoverReport ApplyNodeFailure(DrtpNetwork& net, NodeId node, Time now,
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
