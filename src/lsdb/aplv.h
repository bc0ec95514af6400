// Accumulated Primary-route Link Vector (§2.1).
//
// APLV_i[j] is the number of primary channels that traverse link L_j and
// whose backup channels go through link L_i. The L1 norm drives P-LSR
// (Eq. 4), the bit pattern (Conflict Vector) drives D-LSR (Eq. 5), and the
// max element sizes the spare pool (§5: any single link failure activates
// at most max_j APLV_i[j] backups on L_i).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "lsdb/conflict_vector.h"
#include "lsdb/count_vector.h"
#include "routing/path.h"

namespace drtp::lsdb {

/// One link's APLV: a CountVector over links (L1 norm, maximum, dense or
/// sparse storage) plus its conflict-vector abridgement, kept in step.
class Aplv {
 public:
  Aplv() = default;
  explicit Aplv(int num_links)
      : counts_(num_links, num_links), cv_(num_links) {}

  int size() const { return counts_.size(); }

  std::int32_t count(LinkId j) const { return counts_.at(j); }

  /// ||APLV||_1 — total number of (primary link, backup) incidences.
  std::int64_t L1() const { return counts_.total(); }

  /// max_j APLV[j] — worst-case simultaneous activations on this link
  /// under a single link failure.
  std::int32_t Max() const { return counts_.Max(); }

  /// How many elements currently equal Max() (0 when Max() is 0);
  /// exposed so tests can cross-check the incremental max tracking.
  std::int32_t num_at_max() const { return counts_.num_at_max(); }

  /// Registers a backup on this link whose primary has the given LSET:
  /// increments every element indexed by the primary's links.
  void AddPrimaryLset(const routing::LinkSet& lset) {
    counts_.AddAll(lset, 1);
    for (const LinkId j : lset) cv_.Set(j, true);
  }

  /// Inverse of AddPrimaryLset. Every element is checked (including
  /// repeated-link multiplicity) as it is decremented; a failed removal
  /// throws CheckError and leaves the vector untouched.
  void RemovePrimaryLset(const routing::LinkSet& lset) {
    counts_.SubAll(lset, 1);
    for (const LinkId j : lset) {
      if (counts_.at(j) == 0) cv_.Set(j, false);
    }
  }

  /// Bit-vector abridgement (c_{i,j} = 1 iff a_{i,j} > 0), maintained
  /// incrementally with the counts — reading it is free.
  const ConflictVector& conflict_vector() const { return cv_; }

  /// Copy of the abridgement (kept for callers that want ownership).
  ConflictVector ToConflictVector() const { return cv_; }

  /// Σ_{j ∈ lset} a_{i,j} > 0 element count — number of the primary's
  /// links already conflicting here (used by tests/diagnostics).
  int ConflictingLinksIn(const routing::LinkSet& lset) const {
    return cv_.CountIn(lset);
  }

  friend bool operator==(const Aplv&, const Aplv&) = default;

 private:
  CountVector<std::int32_t> counts_;
  ConflictVector cv_;
};

}  // namespace drtp::lsdb
