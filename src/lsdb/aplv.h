// Accumulated Primary-route Link Vector (§2.1).
//
// APLV_i[j] is the number of primary channels that traverse link L_j and
// whose backup channels go through link L_i. The L1 norm drives P-LSR
// (Eq. 4), the bit pattern (Conflict Vector) drives D-LSR (Eq. 5), and the
// max element sizes the spare pool (§5: any single link failure activates
// at most max_j APLV_i[j] backups on L_i).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "lsdb/conflict_vector.h"
#include "routing/path.h"

namespace drtp::lsdb {

/// One link's APLV with incrementally maintained L1 norm, maximum and
/// conflict-vector abridgement.
///
/// Storage is hybrid: at paper scale (size() <= kWideLinkThreshold) the
/// counts live in a dense array exactly as before. Wide vectors switch to
/// a sorted struct-of-arrays pair (keys_, cnts_) holding only the nonzero
/// elements — an ISP-scale link crosses a few hundred primaries, not all
/// 30k, so the working set stays cache-resident instead of costing
/// O(links) per instance across O(links) instances. Entries are erased
/// when they hit zero, keeping the sparse form canonical so the defaulted
/// equality below stays semantic.
class Aplv {
 public:
  Aplv() = default;
  explicit Aplv(int num_links) : num_links_(num_links), cv_(num_links) {
    DRTP_CHECK(num_links >= 0);
    if (!wide()) counts_.assign(static_cast<std::size_t>(num_links), 0);
  }

  int size() const { return num_links_; }

  std::int32_t count(LinkId j) const;

  /// ||APLV||_1 — total number of (primary link, backup) incidences.
  std::int64_t L1() const { return l1_; }

  /// max_j APLV[j] — worst-case simultaneous activations on this link
  /// under a single link failure.
  std::int32_t Max() const { return max_; }

  /// How many elements currently equal Max() (0 when Max() is 0);
  /// exposed so tests can cross-check the incremental max tracking.
  std::int32_t num_at_max() const { return num_at_max_; }

  /// Registers a backup on this link whose primary has the given LSET:
  /// increments every element indexed by the primary's links.
  void AddPrimaryLset(const routing::LinkSet& lset);

  /// Inverse of AddPrimaryLset. Every element is checked (including
  /// repeated-link multiplicity) as it is decremented; a failed removal
  /// restores what it decremented and throws CheckError, leaving the
  /// vector untouched.
  void RemovePrimaryLset(const routing::LinkSet& lset);

  /// Bit-vector abridgement (c_{i,j} = 1 iff a_{i,j} > 0), maintained
  /// incrementally with the counts — reading it is free.
  const ConflictVector& conflict_vector() const { return cv_; }

  /// Copy of the abridgement (kept for callers that want ownership).
  ConflictVector ToConflictVector() const { return cv_; }

  /// Σ_{j ∈ lset} a_{i,j} > 0 element count — number of the primary's
  /// links already conflicting here (used by tests/diagnostics).
  int ConflictingLinksIn(const routing::LinkSet& lset) const;

  friend bool operator==(const Aplv&, const Aplv&) = default;

 private:
  bool wide() const { return num_links_ > kWideLinkThreshold; }
  /// One incidence of element j (in range), with L1/max/CV upkeep.
  void Increment(LinkId j);

  int num_links_ = 0;
  std::vector<std::int32_t> counts_;  // dense mode only
  std::vector<LinkId> keys_;          // wide mode: sorted nonzero indices
  std::vector<std::int32_t> cnts_;    // wide mode: counts, parallel to keys_
  ConflictVector cv_;
  std::int64_t l1_ = 0;
  std::int32_t max_ = 0;
  /// How many elements currently equal max_ (0 when max_ is 0); lets
  /// RemovePrimaryLset skip the full rescan while another element still
  /// holds the maximum.
  std::int32_t num_at_max_ = 0;
};

}  // namespace drtp::lsdb
