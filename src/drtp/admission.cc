#include "drtp/admission.h"

#include <utility>

#include "drtp/failure.h"

namespace drtp::core {

AdmitOutcome AdmitConnection(RoutingScheme& scheme, DrtpNetwork& net,
                             const lsdb::LinkStateDb& db, ConnId id,
                             NodeId src, NodeId dst, Bandwidth bw, Time now,
                             const AdmitOptions& options) {
  AdmitOutcome out;

  RouteSelection sel = scheme.SelectRoutes(net, db, src, dst, bw);
  out.control_messages = sel.control_messages;
  out.control_bytes = sel.control_bytes;

  if (!sel.primary.has_value() ||
      !net.EstablishConnection(id, *sel.primary, bw, now)) {
    return out;  // blocked
  }
  out.admitted = true;

  // Admit unprotected rather than book spare for vacuous coverage.
  if (sel.backup.has_value() && !Protects(*sel.backup, *sel.primary)) {
    sel.backup.reset();
  }

  if (scheme.wants_backup() && options.num_backups > 0 &&
      sel.backup.has_value()) {
    out.overbooked_hops = net.RegisterBackup(id, *sel.backup);
    out.backup = sel.backup;
    if (options.num_backups > 1) {
      out.extra_backups =
          ProtectConnection(scheme, net, db, id, options.num_backups);
    }
  }
  out.primary = std::move(sel.primary);
  return out;
}

}  // namespace drtp::core
