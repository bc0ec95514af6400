// Shared admission path: one connection request, start to finish.
//
// Both the offline simulator (sim::RunScenario) and the online daemon
// (svc::Engine) admit connections; replay equivalence between them —
// feeding the daemon's request log through the simulator must reproduce
// the same ledger / APLV state — holds only if both run the *same* code:
// route discovery, all-or-nothing primary establishment, the
// vacuous-backup shun, backup registration, and optional multi-backup
// protection. This is that code. Callers layer their own bookkeeping
// (sim metrics, daemon RPC responses) on the returned outcome.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "lsdb/link_state_db.h"
#include "routing/path.h"

namespace drtp::core {

struct AdmitOptions {
  /// Backups to register per connection; 0 admits unprotected even when
  /// the scheme wants a backup. Values > 1 add pairwise-disjoint extras
  /// via ProtectConnection.
  int num_backups = 1;
};

/// What one admission attempt did. Route-discovery cost is filled whether
/// or not the request was admitted; the route fields only on admission.
struct AdmitOutcome {
  bool admitted = false;

  /// The established primary (present iff admitted).
  std::optional<routing::Path> primary;
  /// The first backup actually registered, after the vacuous-coverage
  /// shun; absent when the connection runs unprotected.
  std::optional<routing::Path> backup;

  /// Hops RegisterBackup left overbooked for the first backup.
  int overbooked_hops = 0;
  /// Disjoint backups registered beyond the first (num_backups > 1).
  int extra_backups = 0;

  /// Control-plane cost of route discovery (from RouteSelection).
  std::int64_t control_messages = 0;
  std::int64_t control_bytes = 0;

  bool has_backup() const { return backup.has_value(); }
};

/// Runs the full admission sequence for request `id` (src -> dst, bw):
/// scheme.SelectRoutes against the advertised `db`, EstablishConnection
/// (all-or-nothing; a down link or insufficient free bandwidth blocks),
/// the vacuous-backup shun (a backup that fails Protects is dropped
/// rather than booked), RegisterBackup,
/// and — for num_backups > 1 — ProtectConnection. Does NOT publish to
/// `db`; the caller owns advertisement cadence (the simulator publishes
/// per event in instant mode, the daemon once per batch).
AdmitOutcome AdmitConnection(RoutingScheme& scheme, DrtpNetwork& net,
                             const lsdb::LinkStateDb& db, ConnId id,
                             NodeId src, NodeId dst, Bandwidth bw, Time now,
                             const AdmitOptions& options = {});

}  // namespace drtp::core
