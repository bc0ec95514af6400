// Link-state database (§3).
//
// Routers advertise, per outgoing link: available bandwidth plus the
// scheme-specific APLV abridgement — ||APLV||_1 for P-LSR, the Conflict
// Vector for D-LSR, and on SRLG-tagged topologies the per-SRLG aggregate
// for the SRLG-aware schemes. The database is the *routing view*: with
// the default refresh interval of 0 it mirrors authoritative state
// instantly (the paper's simulation assumption); a positive interval
// models advertisement staleness for ablations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "lsdb/conflict_vector.h"
#include "lsdb/srlg_vector.h"

namespace drtp::lsdb {

/// One link's advertised state.
struct LinkRecord {
  /// Liveness: routers withdraw failed links from the database; no route
  /// selection may use a withdrawn link.
  bool up = true;
  /// ||APLV||_1 (P-LSR's cost ingredient).
  std::int64_t aplv_l1 = 0;
  /// Conflict vector (D-LSR's cost ingredient).
  ConflictVector cv;
  /// Bandwidth a *backup* may still use: free + spare pool (§3.1:
  /// "the sum of the un-allocated bandwidth and the spare bandwidth
  /// shared by the backup channels").
  Bandwidth available_for_backup = 0;
  /// Bandwidth a *primary* may still reserve: the free pool only.
  Bandwidth free_for_primary = 0;
  /// Per-SRLG APLV aggregate (SRLG-aware schemes' cost ingredient).
  /// Empty (zero groups) on untagged topologies, so SRLG-free runs carry
  /// and compare nothing extra.
  SrlgVector srlg_aplv;

  friend bool operator==(const LinkRecord&, const LinkRecord&) = default;
};

/// Snapshot store of every link's advertisement.
class LinkStateDb {
 public:
  LinkStateDb(int num_links, int cv_width)
      : records_(static_cast<std::size_t>(num_links)) {
    DRTP_CHECK(num_links >= 0);
    for (auto& r : records_) r.cv = ConflictVector(cv_width);
  }

  int num_links() const { return static_cast<int>(records_.size()); }

  const LinkRecord& record(LinkId l) const {
    DRTP_DCHECK(l >= 0 && l < num_links());
    return records_[static_cast<std::size_t>(l)];
  }
  LinkRecord& record(LinkId l) {
    DRTP_DCHECK(l >= 0 && l < num_links());
    return records_[static_cast<std::size_t>(l)];
  }

  Time last_refresh() const { return last_refresh_; }
  void set_last_refresh(Time t) { last_refresh_ = t; }

  // ---- publish stamp ------------------------------------------------------
  // Identity and sequence number of the last publisher that wrote this
  // database. DrtpNetwork::PublishTo takes its incremental path only when
  // the stamp proves this db received every publication since the last
  // full one; any other writer (a different network, a fresh db, a copy
  // that fell behind) gets a full republish. Opaque to everyone else.

  const void* publisher() const { return publisher_; }
  std::uint64_t publish_seq() const { return publish_seq_; }
  void SetPublishStamp(const void* publisher, std::uint64_t seq) {
    publisher_ = publisher;
    publish_seq_ = seq;
  }

  /// Wire size of one full advertisement cycle (all links), in bytes.
  /// Per link: 4B link id + 4B bandwidth fields x2 + payload
  /// (8B L1 for P-LSR, N/8 B conflict vector for D-LSR); `with_srlg`
  /// additionally counts the per-SRLG aggregate the SRLG-aware variants
  /// read.
  std::int64_t AdvertBytesPerCycle(bool with_cv,
                                   bool with_srlg = false) const;

 private:
  std::vector<LinkRecord> records_;
  Time last_refresh_ = -1.0;
  const void* publisher_ = nullptr;
  std::uint64_t publish_seq_ = 0;
};

}  // namespace drtp::lsdb
