// Per-SRLG aggregate of a link's APLV (the SRLG-aware advert).
//
// Element g is Σ_{L_j ∈ SRLG g} APLV_i[j]: how many (primary-link, backup)
// incidences on this link would activate together if risk group g failed.
// SRLG-aware backup selection reads it from the link-state database the
// same way P-LSR reads ||APLV||_1 — correlated-failure exposure scored
// from advertised local state only, no global knowledge.
//
// It is a CountVector over risk groups, so storage follows the APLV's:
// dense at paper scale, sorted nonzero-only on wide topologies (a link's
// backups cross a handful of risk groups, not all of them). A
// default-constructed vector (zero groups) is the representation for
// untagged topologies and costs nothing to copy or compare, which keeps
// SRLG-free runs byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "lsdb/count_vector.h"
#include "routing/path.h"

namespace drtp::lsdb {

class SrlgVector {
 public:
  SrlgVector() = default;
  SrlgVector(int num_srlgs, int num_links) : counts_(num_srlgs, num_links) {}

  int num_srlgs() const { return counts_.size(); }

  std::int32_t at(SrlgId g) const { return counts_.at(g); }

  /// Σ_g at(g) — equals ||APLV||_1 restricted to tagged links.
  std::int64_t total() const { return counts_.total(); }

  /// Registers a backup whose primary has the given LSET: every tagged
  /// link of the LSET bumps its group. `srlg_of` maps LinkId -> SrlgId
  /// (kInvalidSrlg = untagged, skipped). A zero-group vector (untagged
  /// topology) skips the lookups.
  template <typename SrlgOf>
  void AddLset(const routing::LinkSet& lset, SrlgOf&& srlg_of) {
    if (num_srlgs() > 0) counts_.AddAll(GroupsOf(lset, srlg_of), 1);
  }

  /// Inverse of AddLset, with CountVector::SubAll's contract: a failed
  /// removal throws CheckError with the vector untouched.
  template <typename SrlgOf>
  void RemoveLset(const routing::LinkSet& lset, SrlgOf&& srlg_of) {
    if (num_srlgs() > 0) counts_.SubAll(GroupsOf(lset, srlg_of), 1);
  }

  /// Σ_{g ∈ groups} at(g) for a sorted, unique group list — the
  /// correlated-activation exposure of a backup candidate against a
  /// primary whose links span `groups`.
  std::int64_t SumOver(std::span<const SrlgId> groups) const {
    return counts_.SumOver(groups);
  }

  /// Wire size of this advert: 4B count + 4B-id/4B-count per nonzero
  /// entry (dense cycles advertise only the nonzero groups too).
  std::int64_t AdvertBytes() const {
    return 4 + 8 * std::int64_t{counts_.nonzero()};
  }

  friend bool operator==(const SrlgVector&, const SrlgVector&) = default;

 private:
  /// The LSET's tagged links mapped to their groups, in a per-thread
  /// buffer (so the vector itself carries no scratch to copy or compare).
  template <typename SrlgOf>
  static std::span<const SrlgId> GroupsOf(const routing::LinkSet& lset,
                                          SrlgOf& srlg_of) {
    thread_local std::vector<SrlgId> groups;
    groups.clear();
    for (const LinkId j : lset) {
      const SrlgId g = srlg_of(j);
      if (g != kInvalidSrlg) groups.push_back(g);
    }
    return groups;
  }

  CountVector<std::int32_t> counts_;
};

}  // namespace drtp::lsdb
