#include "drtp/failure.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace drtp::core {
namespace {

bool UsesAny(const routing::Path& path, std::span<const LinkId> links) {
  return std::any_of(links.begin(), links.end(),
                     [&](LinkId l) { return path.Contains(l); });
}

/// One distinct link of a backup route as its promotion sees it: the
/// promotion fits only if the link has at least `demand` = need − credit
/// spare+free bandwidth left, where need is bw × the link's occurrences
/// on the backup and credit bw × its occurrences on the primary.
struct LinkDemand {
  LinkId link;
  Bandwidth demand;
};

/// Per-link occurrence counters for ActivationDemands; all zero between
/// calls.
using LinkCounts = std::vector<int>;

/// The activation rule, shared by the what-if evaluation and the enacted
/// switchover. ActivateBackup releases the old primary and then
/// force-reserves the promoted route from spare+free (= total − prime), so
/// per distinct link the pool plus the connection's own primary release
/// must cover the promoted route's demand. Appends one LinkDemand per
/// distinct link of `backup`, in first-occurrence order, in O(hops).
void ActivationDemands(const routing::Path& backup,
                       const routing::Path& primary, Bandwidth bw,
                       LinkCounts& counts, std::vector<LinkDemand>& out) {
  constexpr int kListed = std::numeric_limits<int>::min();
  const auto at = [&](LinkId l) -> int& {
    return counts[static_cast<std::size_t>(l)];
  };
  for (LinkId l : backup.links()) ++at(l);
  for (LinkId l : primary.links()) --at(l);
  for (LinkId l : backup.links()) {
    if (at(l) == kListed) continue;
    out.push_back({l, bw * at(l)});
    at(l) = kListed;
  }
  for (LinkId l : backup.links()) at(l) = 0;
  for (LinkId l : primary.links()) at(l) = 0;
}

/// Whether a promotion with these demands fits; `available` maps a link to
/// its spare+free bandwidth (live ledger or what-if scratch).
template <typename AvailableFn>
bool Fits(std::span<const LinkDemand> demands, AvailableFn&& available) {
  return std::all_of(demands.begin(), demands.end(), [&](const LinkDemand& d) {
    return available(d.link) >= d.demand;
  });
}

/// Ascending-id union of the primaries crossing each failed link, from the
/// network's reverse index — the order contention is resolved in.
void CollectAffectedPrimaries(const DrtpNetwork& net,
                              std::span<const LinkId> failed_set,
                              std::vector<ConnId>& out) {
  out.clear();
  for (LinkId l : failed_set) {
    const auto conns = net.PrimaryConnsOn(l);
    out.insert(out.end(), conns.begin(), conns.end());
  }
  if (failed_set.size() > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

/// Flat image of what the contention walk reads from the connection
/// table, reused between calls. Each connection is a slot (slots ascend
/// with connection id); each backup a record holding its links, an
/// all-links-up flag and its LinkDemands. The link → slot CSR lists, per
/// imaged link, the slots whose primary crosses it, ascending — the
/// contention order.
class FailureImage {
 public:
  /// Images, in one ordered pass over the connection table, every
  /// connection whose primary crosses a link `on(l)` holds for, with the
  /// CSR of those links.
  template <typename OnFn>
  void BuildOn(const DrtpNetwork& net, OnFn&& on) {
    Reset(net);
    const auto num_links = static_cast<std::size_t>(net.topology().num_links());
    bucket_begin_.assign(num_links + 1, 0);
    for (std::size_t l = 0; l < num_links; ++l) {
      const auto link = static_cast<LinkId>(l);
      bucket_begin_[l + 1] =
          bucket_begin_[l] +
          (on(link) ? static_cast<std::uint32_t>(
                          net.PrimaryConnsOn(link).size())
                    : 0);
    }
    bucket_slots_.resize(bucket_begin_[num_links]);
    cursor_.assign(bucket_begin_.begin(), bucket_begin_.end() - 1);
    for (const auto& [id, conn] : net.connections()) {
      const auto& lset = conn.primary_lset;
      if (std::none_of(lset.begin(), lset.end(), on)) continue;
      const std::uint32_t slot = Append(net, conn);
      for (LinkId l : lset) {
        if (on(l)) bucket_slots_[cursor_[static_cast<std::size_t>(l)]++] = slot;
      }
    }
    for (std::size_t l = 0; l < num_links; ++l) {
      DRTP_DCHECK(cursor_[l] == bucket_begin_[l + 1]);
    }
  }

  /// Images just `ids` (ascending) and returns their slots; no CSR.
  std::span<const std::uint32_t> BuildFor(const DrtpNetwork& net,
                                          std::span<const ConnId> ids) {
    Reset(net);
    merged_.clear();
    for (ConnId id : ids) {
      const DrConnection* conn = net.Find(id);
      DRTP_DCHECK(conn != nullptr);
      merged_.push_back(Append(net, *conn));
    }
    return merged_;
  }

  /// Slots whose primary crosses any link of `failed_set`, ascending;
  /// every link of the set must have been imaged by BuildOn.
  std::span<const std::uint32_t> SlotsOn(std::span<const LinkId> failed_set) {
    if (failed_set.size() == 1) return Bucket(failed_set[0]);
    DRTP_DCHECK(failed_set.size() == 2);
    const auto a = Bucket(failed_set[0]);
    const auto b = Bucket(failed_set[1]);
    merged_.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(merged_));
    return merged_;
  }

  /// Fails `failed_set` hypothetically for the connections in `slots`.
  /// Contention follows the slot order: each connection takes the first
  /// backup that has every link up, avoids the failure and fits, and —
  /// switched or dropped — returns its old primary's bandwidth to the
  /// pool before the next one contends. For the call the failed links'
  /// remainders are kFailedLink, so the fit check alone turns away the
  /// backups crossing them; on return every remainder is the pool again.
  FailureImpact Evaluate(std::span<const std::uint32_t> slots,
                         std::span<const LinkId> failed_set,
                         FailureImpactDetail* detail) {
    FailureImpact impact;
    if (slots.empty()) return impact;
    const auto remaining = [&](LinkId l) -> Bandwidth& {
      return remaining_[static_cast<std::size_t>(l)];
    };
    for (LinkId l : failed_set) remaining(l) = kFailedLink;
    chosen_.clear();
    for (const std::uint32_t slot : slots) {
      std::uint32_t chosen = kNone;
      for (std::uint32_t b = backup_begin_[slot]; b < backup_begin_[slot + 1];
           ++b) {
        if (all_up_[b] && Fits(Range(demands_, demand_begin_, b), remaining)) {
          chosen = b;
          break;
        }
      }
      chosen_.push_back(chosen);
      const Bandwidth bw = bw_[slot];
      for (LinkId l : Range(primary_links_, primary_begin_, slot)) {
        remaining(l) += bw;
      }
      if (chosen != kNone) {
        for (LinkId l : Range(backup_links_, links_begin_, chosen)) {
          remaining(l) -= bw;
        }
        ++impact.activated;
      }
      if (detail != nullptr) {
        (chosen != kNone ? detail->activated : detail->dropped)
            .push_back(ids_[slot]);
      }
    }
    impact.attempts = static_cast<int>(slots.size());
    // Reset every remainder this call touched.
    const auto reset = [&](LinkId l) {
      remaining(l) = pool_[static_cast<std::size_t>(l)];
    };
    for (std::size_t i = 0; i < slots.size(); ++i) {
      for (LinkId l : Range(primary_links_, primary_begin_, slots[i])) {
        reset(l);
      }
      if (chosen_[i] == kNone) continue;
      for (LinkId l : Range(backup_links_, links_begin_, chosen_[i])) {
        reset(l);
      }
    }
    for (LinkId l : failed_set) reset(l);
    return impact;
  }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// Remainder of a failed link: below any demand, however many primary
  /// releases are added to it.
  static constexpr Bandwidth kFailedLink =
      std::numeric_limits<Bandwidth>::min() / 2;

  template <typename T>
  static std::span<const T> Range(const std::vector<T>& items,
                                  const std::vector<std::uint32_t>& begin,
                                  std::uint32_t i) {
    return std::span<const T>(items).subspan(begin[i],
                                             begin[i + 1] - begin[i]);
  }

  std::span<const std::uint32_t> Bucket(LinkId l) const {
    return Range(bucket_slots_, bucket_begin_, static_cast<std::uint32_t>(l));
  }

  void Reset(const DrtpNetwork& net) {
    ids_.clear();
    bw_.clear();
    primary_begin_.assign(1, 0);
    primary_links_.clear();
    backup_begin_.assign(1, 0);
    links_begin_.assign(1, 0);
    backup_links_.clear();
    demand_begin_.assign(1, 0);
    demands_.clear();
    all_up_.clear();
    const auto num_links = static_cast<std::size_t>(net.topology().num_links());
    pool_.resize(num_links);
    for (std::size_t l = 0; l < num_links; ++l) {
      const auto link = static_cast<LinkId>(l);
      pool_[l] = net.ledger().spare(link) + net.ledger().free(link);
    }
    remaining_ = pool_;
    counts_.resize(num_links, 0);
    all_links_up_ = net.down_links().empty();
  }

  /// Appends `conn` as the next slot.
  std::uint32_t Append(const DrtpNetwork& net, const DrConnection& conn) {
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(conn.id);
    bw_.push_back(conn.bw);
    const auto links = conn.primary.links();
    primary_links_.insert(primary_links_.end(), links.begin(), links.end());
    primary_begin_.push_back(static_cast<std::uint32_t>(primary_links_.size()));
    for (const routing::Path& backup : conn.backups) {
      const auto blinks = backup.links();
      backup_links_.insert(backup_links_.end(), blinks.begin(), blinks.end());
      links_begin_.push_back(static_cast<std::uint32_t>(backup_links_.size()));
      all_up_.push_back(all_links_up_ ||
                        std::all_of(blinks.begin(), blinks.end(),
                                    [&](LinkId l) { return net.IsLinkUp(l); }));
      ActivationDemands(backup, conn.primary, conn.bw, counts_, demands_);
      demand_begin_.push_back(static_cast<std::uint32_t>(demands_.size()));
    }
    backup_begin_.push_back(static_cast<std::uint32_t>(all_up_.size()));
    return slot;
  }

  // Per slot.
  std::vector<ConnId> ids_;
  std::vector<Bandwidth> bw_;
  std::vector<std::uint32_t> primary_begin_;  // into primary_links_
  std::vector<LinkId> primary_links_;
  std::vector<std::uint32_t> backup_begin_;  // into the per-backup arrays
  // Per backup.
  std::vector<std::uint32_t> links_begin_;  // into backup_links_
  std::vector<LinkId> backup_links_;
  std::vector<std::uint32_t> demand_begin_;  // into demands_
  std::vector<LinkDemand> demands_;
  std::vector<char> all_up_;
  // Link → slot CSR.
  std::vector<std::uint32_t> bucket_begin_;
  std::vector<std::uint32_t> bucket_slots_;
  std::vector<std::uint32_t> cursor_;
  // Per link: spare+free at build time, and what an evaluation has left
  // of it (equal to the pool between evaluations).
  std::vector<Bandwidth> pool_;
  std::vector<Bandwidth> remaining_;
  LinkCounts counts_;
  std::vector<std::uint32_t> merged_;
  std::vector<std::uint32_t> chosen_;  // per evaluated slot, for the reset
  bool all_links_up_ = true;
};

/// One image per thread: the sweep runner evaluates scenarios on a pool.
FailureImage& Image() {
  thread_local FailureImage image;
  return image;
}

/// The set of links taken down by failing `l` (one, or both halves of the
/// duplex pair under duplex_failures).
std::span<const LinkId> FailedSet(const DrtpNetwork& net, LinkId l,
                                  LinkId (&storage)[2]) {
  storage[0] = l;
  std::size_t n = 1;
  if (net.config().duplex_failures) {
    const LinkId rev = net.topology().link(l).reverse;
    if (rev != kInvalidLink) storage[n++] = rev;
  }
  return {storage, n};
}

FailureImpact EvaluateAffected(const DrtpNetwork& net, LinkId failed,
                               FailureImpactDetail* detail) {
  LinkId storage[2];
  const std::span<const LinkId> failed_set = FailedSet(net, failed, storage);
  std::vector<ConnId> affected;
  CollectAffectedPrimaries(net, failed_set, affected);
  if (affected.empty()) return {};
  FailureImage& image = Image();
  return image.Evaluate(image.BuildFor(net, affected), failed_set, detail);
}

/// Verdict on one failed set of a sweep.
struct SetVerdict {
  /// Connections whose primary the set disables.
  int attempts = 0;
  /// Of those, how many activate a backup.
  int activated = 0;
  /// The shortcut could not decide the set; `activated` is the walk's.
  bool contended = false;
};

/// The sweep's exact shortcut past the contention walk (docs/PERF.md,
/// "What-if failure sweep"). For a failed set F, an affected connection's
/// candidate b* is its first backup that has every link up and avoids F:
/// the walk rejects every earlier backup in any order. If every link l of
/// b* has pool(l) = spare + free ≥ Σ_{f∈F} demand_l[f], b* fits in any
/// order, because that sum bounds all of F's activations that can land on
/// l and primary releases only add to the pool. A set whose every
/// affected connection passes is decided here (attempts = affected,
/// activated = those with a b*); any other set is contended.
///
/// One ordered pass over the connection table classifies every
/// (connection, failed set) pair. A set is keyed by the link the sweep
/// evaluates it at, its lower half under duplex_failures. A link is safe
/// when its pool covers |F| × demand_l.Max() for the largest failed set,
/// which bounds every set's sum; demand_l[f] is read only on the others.
class SweepClassifier {
 public:
  void Run(const DrtpNetwork& net) {
    Prepare(net);
    for (const auto& [id, conn] : net.connections()) Classify(net, conn);
  }

  /// Key of the evaluated failed set containing `l`; kInvalidLink when
  /// the sweep evaluates none (`l`, or under duplex_failures the pair's
  /// lower half, is down).
  LinkId set_of(LinkId l) const { return set_of_[At(l)]; }
  SetVerdict& verdict(LinkId key) { return verdict_[At(key)]; }
  int num_contended() const { return num_contended_; }

 private:
  /// A backup with every link up, as the classification sees it.
  struct Candidate {
    const routing::Path* path = nullptr;
    /// Crosses one of the connection's failed sets.
    bool crosses = false;
    /// Its links that are not safe: unsafe_[unsafe_begin, unsafe_end).
    std::uint32_t unsafe_begin = 0;
    std::uint32_t unsafe_end = 0;
  };

  static std::size_t At(LinkId l) { return static_cast<std::size_t>(l); }

  void Prepare(const DrtpNetwork& net) {
    const net::Topology& topo = net.topology();
    const auto num_links = static_cast<std::size_t>(topo.num_links());
    duplex_ = net.config().duplex_failures;
    all_links_up_ = net.down_links().empty();
    set_of_.assign(num_links, kInvalidLink);
    verdict_.assign(num_links, {});
    mark_.assign(num_links, 0);
    serial_ = 0;
    num_contended_ = 0;
    pool_.resize(num_links);
    safe_.resize(num_links);
    const Bandwidth most_failed = duplex_ ? 2 : 1;
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      pool_[At(l)] = net.ledger().spare(l) + net.ledger().free(l);
      safe_[At(l)] = pool_[At(l)] >= most_failed * net.demand(l).Max();
      if (!net.IsLinkUp(l)) continue;
      const LinkId rev = duplex_ ? topo.link(l).reverse : kInvalidLink;
      if (rev != kInvalidLink && rev < l) continue;
      set_of_[At(l)] = l;
      if (rev != kInvalidLink) set_of_[At(rev)] = l;
    }
  }

  void Classify(const DrtpNetwork& net, const DrConnection& conn) {
    keys_.clear();
    for (const LinkId f : conn.primary_lset) {
      const LinkId key = set_of_[At(f)];
      if (key != kInvalidLink) keys_.push_back(key);
    }
    if (keys_.empty()) return;
    if (duplex_) {  // both halves of a pair share one key
      std::sort(keys_.begin(), keys_.end());
      keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    }
    ++serial_;
    for (const LinkId key : keys_) mark_[At(key)] = serial_;
    candidates_.clear();
    unsafe_.clear();
    for (const routing::Path& backup : conn.backups) {
      Candidate c{.path = &backup,
                  .unsafe_begin = static_cast<std::uint32_t>(unsafe_.size())};
      bool up = true;
      for (const LinkId l : backup.links()) {
        if (!all_links_up_ && !net.IsLinkUp(l)) {
          up = false;
          break;
        }
        const LinkId key = set_of_[At(l)];
        c.crosses = c.crosses ||
                    (key != kInvalidLink && mark_[At(key)] == serial_);
        if (!safe_[At(l)]) unsafe_.push_back(l);
      }
      if (!up) {
        unsafe_.resize(c.unsafe_begin);
        continue;
      }
      c.unsafe_end = static_cast<std::uint32_t>(unsafe_.size());
      candidates_.push_back(c);
    }
    for (const LinkId key : keys_) {
      SetVerdict& v = verdict_[At(key)];
      ++v.attempts;
      const auto star = std::find_if(
          candidates_.begin(), candidates_.end(), [&](const Candidate& c) {
            return !c.crosses || !Crosses(*c.path, key);
          });
      if (star == candidates_.end()) continue;  // dropped in any order
      ++v.activated;
      if (!v.contended && !Covers(net, *star, key)) {
        v.contended = true;
        ++num_contended_;
      }
    }
  }

  /// Whether `path` crosses the failed set keyed `key`.
  bool Crosses(const routing::Path& path, LinkId key) const {
    const auto links = path.links();
    return std::any_of(links.begin(), links.end(),
                       [&](LinkId l) { return set_of_[At(l)] == key; });
  }

  /// Whether every link of `c` has pool ≥ Σ_{f∈F} demand_l[f] for the
  /// failed set F keyed `key`; only its unsafe links need the sum.
  bool Covers(const DrtpNetwork& net, const Candidate& c, LinkId key) const {
    if (c.unsafe_begin == c.unsafe_end) return true;
    const LinkId rev =
        duplex_ ? net.topology().link(key).reverse : kInvalidLink;
    for (std::uint32_t i = c.unsafe_begin; i < c.unsafe_end; ++i) {
      const LinkId l = unsafe_[i];
      const DemandVector& demand = net.demand(l);
      Bandwidth activations = demand.at(key);
      if (rev != kInvalidLink) activations += demand.at(rev);
      if (pool_[At(l)] < activations) return false;
    }
    return true;
  }

  bool duplex_ = false;
  bool all_links_up_ = true;
  // Per link.
  std::vector<LinkId> set_of_;
  std::vector<Bandwidth> pool_;
  std::vector<char> safe_;
  // Per key.
  std::vector<SetVerdict> verdict_;
  int num_contended_ = 0;
  /// serial_ of the last connection whose primary the set disables.
  std::vector<std::uint32_t> mark_;
  std::uint32_t serial_ = 0;
  // Per connection.
  std::vector<LinkId> keys_;
  std::vector<Candidate> candidates_;
  std::vector<LinkId> unsafe_;
};

/// Replaces every contended set's activated count by the contention
/// walk's, over one image of just the contended sets' connections.
void WalkContended(const DrtpNetwork& net, SweepClassifier& sweep) {
  if (sweep.num_contended() == 0) return;
  FailureImage& image = Image();
  image.BuildOn(net, [&](LinkId l) {
    const LinkId key = sweep.set_of(l);
    return key != kInvalidLink && sweep.verdict(key).contended;
  });
  const LinkId num_links = net.topology().num_links();
  LinkId storage[2];
  for (LinkId key = 0; key < num_links; ++key) {
    SetVerdict& v = sweep.verdict(key);
    if (sweep.set_of(key) != key || !v.contended) continue;
    const std::span<const LinkId> failed_set = FailedSet(net, key, storage);
    const FailureImpact impact =
        image.Evaluate(image.SlotsOn(failed_set), failed_set, nullptr);
    DRTP_DCHECK(impact.attempts == v.attempts);
    v.activated = impact.activated;
  }
}

/// One classifier per thread: the sweep runner evaluates scenarios on a
/// pool.
SweepClassifier& Classifier() {
  thread_local SweepClassifier classifier;
  return classifier;
}

}  // namespace

FailureImpact EvaluateLinkFailure(const DrtpNetwork& net, LinkId failed) {
  return EvaluateAffected(net, failed, nullptr);
}

FailureImpactDetail EvaluateLinkFailureDetailed(const DrtpNetwork& net,
                                                LinkId failed) {
  FailureImpactDetail detail;
  detail.impact = EvaluateAffected(net, failed, &detail);
  return detail;
}

Ratio EvaluateAllSingleLinkFailures(const DrtpNetwork& net,
                                    std::vector<FailureImpact>* per_link,
                                    FailureSweepStats* stats) {
  DRTP_OBS_SPAN("drtp.kernel.failure_sweep");
  static const obs::Counter failed_sets_counter =
      obs::GetCounter("drtp.failure_sweep.failed_sets");
  static const obs::Counter contended_counter =
      obs::GetCounter("drtp.failure_sweep.contended");
  const net::Topology& topo = net.topology();
  if (per_link != nullptr) {
    per_link->assign(static_cast<std::size_t>(topo.num_links()), {});
  }
  SweepClassifier& sweep = Classifier();
  sweep.Run(net);
  WalkContended(net, sweep);
  Ratio ratio;
  FailureSweepStats counted;
  LinkId storage[2];
  for (LinkId key = 0; key < topo.num_links(); ++key) {
    if (sweep.set_of(key) != key) continue;
    const SetVerdict& v = sweep.verdict(key);
    ratio.AddMany(v.activated, v.attempts);
    if (v.attempts > 0) {
      ++counted.failed_sets;
      if (v.contended) ++counted.contended;
    }
    if (per_link != nullptr) {
      for (LinkId f : FailedSet(net, key, storage)) {
        (*per_link)[static_cast<std::size_t>(f)] = {v.attempts, v.activated};
      }
    }
  }
#ifndef NDEBUG
  // Every shortcut verdict must be the walk's.
  for (LinkId key = 0; key < topo.num_links(); ++key) {
    if (sweep.set_of(key) != key || sweep.verdict(key).contended) continue;
    const SetVerdict& v = sweep.verdict(key);
    const FailureImpact walked = EvaluateAffected(net, key, nullptr);
    DRTP_CHECK_MSG(walked.attempts == v.attempts &&
                       walked.activated == v.activated,
                   "failure sweep shortcut diverged on link "
                       << key << ": " << v.activated << "/" << v.attempts
                       << " vs the walk's " << walked.activated << "/"
                       << walked.attempts);
  }
#endif
  failed_sets_counter.Add(counted.failed_sets);
  contended_counter.Add(counted.contended);
  if (stats != nullptr) *stats = counted;
  return ratio;
}

SwitchoverReport ApplyLinkFailure(DrtpNetwork& net, LinkId failed, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db) {
  const LinkId one[1] = {failed};
  return ApplyLinkSetFailure(net, one, now, reroute, db);
}

bool Protects(const routing::Path& backup, const routing::Path& primary) {
  return backup.OverlapCount(primary) < primary.hops();
}

std::optional<int> Reprotect(DrtpNetwork& net, lsdb::LinkStateDb& db,
                             RoutingScheme& scheme, ConnId id, Time now) {
  const DrConnection* conn = net.Find(id);
  DRTP_CHECK(conn != nullptr && !conn->has_backup());
  net.PublishTo(db, now);
  const auto backup =
      scheme.SelectBackupFor(net, db, conn->primary, conn->bw);
  if (!backup.has_value() || !Protects(*backup, conn->primary) ||
      UsesAny(*backup, net.down_links())) {
    return std::nullopt;
  }
  return net.RegisterBackup(id, *backup);
}

std::vector<LinkId> FailedLinkSet(const DrtpNetwork& net,
                                  std::span<const LinkId> links) {
  std::vector<LinkId> failed_set;
  failed_set.reserve(links.size() * 2);
  for (LinkId l : links) {
    DRTP_CHECK(l >= 0 && l < net.topology().num_links());
    if (!net.IsLinkUp(l)) continue;
    failed_set.push_back(l);
    if (net.config().duplex_failures) {
      const LinkId rev = net.topology().link(l).reverse;
      if (rev != kInvalidLink && net.IsLinkUp(rev)) failed_set.push_back(rev);
    }
  }
  std::sort(failed_set.begin(), failed_set.end());
  failed_set.erase(std::unique(failed_set.begin(), failed_set.end()),
                   failed_set.end());
  return failed_set;
}

SwitchoverReport ApplyLinkSetFailure(DrtpNetwork& net,
                                     std::span<const LinkId> links, Time now,
                                     RoutingScheme* reroute,
                                     lsdb::LinkStateDb* db) {
  DRTP_OBS_SPAN("drtp.kernel.apply_failure");
  SwitchoverReport report;
  // The correlated set is whatever actually transitions up->down at `now`.
  const std::vector<LinkId> failed_set = FailedLinkSet(net, links);
  if (failed_set.empty()) return report;
  for (LinkId l : failed_set) net.SetLinkDown(l);
  // Topology-derived caches (BF distance tables) must reflect the failure
  // before any step-4 reroute floods.
  if (reroute != nullptr) reroute->OnTopologyChanged(net);

  // Collect the affected ids first (from the reverse indexes — mutations
  // below invalidate both iteration and the indexes themselves).
  std::vector<ConnId> primary_hit;
  CollectAffectedPrimaries(net, failed_set, primary_hit);
  std::vector<ConnId> backup_hit;
  for (LinkId l : failed_set) {
    const auto conns = net.BackupConnsOn(l);
    backup_hit.insert(backup_hit.end(), conns.begin(), conns.end());
  }
  std::sort(backup_hit.begin(), backup_hit.end());
  backup_hit.erase(std::unique(backup_hit.begin(), backup_hit.end()),
                   backup_hit.end());
  // A connection whose primary is hit is handled by channel switching,
  // not backup release.
  std::erase_if(backup_hit, [&](ConnId id) {
    return std::binary_search(primary_hit.begin(), primary_hit.end(), id);
  });

  // Broken backups are released first (their spare claims must not block
  // activations), per the failure-reporting step. Surviving backups of the
  // same connection stay registered.
  for (ConnId id : backup_hit) {
    const DrConnection* conn = net.Find(id);
    DRTP_CHECK(conn != nullptr);
    for (std::size_t i = conn->backups.size(); i-- > 0;) {
      if (UsesAny(conn->backups[i], failed_set)) net.ReleaseBackupAt(id, i);
    }
    report.backups_lost.push_back(id);
  }

  // Channel switching in id order: promote the first surviving backup
  // that can actually be activated. "Surviving" means every link is up —
  // the just-failed set plus any link still down from earlier failures
  // (registered backups normally never traverse down links, but the
  // activation must not rely on that). On top of that the promotion must
  // fit: previously the first all-up backup was chosen blindly, and when
  // its ActivateBackup lost the spare-pool contention the connection was
  // dropped even though a later backup had room — an outcome the what-if
  // evaluation (which does model capacity) could never predict.
  const auto all_links_up = [&](const routing::Path& path) {
    for (LinkId l : path.links()) {
      if (!net.IsLinkUp(l)) return false;
    }
    return true;
  };
  const auto pool = [&](LinkId l) {
    return net.ledger().spare(l) + net.ledger().free(l);
  };
  LinkCounts counts(static_cast<std::size_t>(net.topology().num_links()), 0);
  std::vector<LinkDemand> demands;
  for (ConnId id : primary_hit) {
    const DrConnection* conn = net.Find(id);
    DRTP_CHECK(conn != nullptr);
    std::size_t usable = conn->backups.size();
    for (std::size_t i = 0; i < conn->backups.size(); ++i) {
      if (!all_links_up(conn->backups[i])) continue;
      demands.clear();
      ActivationDemands(conn->backups[i], conn->primary, conn->bw, counts,
                        demands);
      if (Fits(demands, pool)) {
        usable = i;
        break;
      }
    }
    if (usable == conn->backups.size()) {
      net.ReleaseConnection(id);
      report.dropped.push_back(id);
      continue;
    }
    if (net.ActivateBackup(id, usable, now)) {
      report.recovered.push_back(id);
    } else {
      report.dropped.push_back(id);  // ActivateBackup already cleaned up
    }
  }

  // Step 4, resource reconfiguration: re-protect every connection left
  // without a backup; one that finds none runs unprotected.
  if (reroute != nullptr && db != nullptr) {
    std::vector<ConnId> unprotected;
    for (ConnId id : report.recovered) unprotected.push_back(id);
    for (ConnId id : report.backups_lost) unprotected.push_back(id);
    std::sort(unprotected.begin(), unprotected.end());
    for (ConnId id : unprotected) {
      const DrConnection* conn = net.Find(id);
      if (conn == nullptr || conn->has_backup()) continue;
      if (Reprotect(net, *db, *reroute, id, now).has_value()) {
        report.rerouted.push_back(id);
      }
    }
  }
  return report;
}

std::vector<LinkId> IncidentLinks(const net::Topology& topo, NodeId node) {
  DRTP_CHECK(node >= 0 && node < topo.num_nodes());
  std::vector<LinkId> incident;
  const net::Node& n = topo.node(node);
  incident.reserve(n.out_links.size() + n.in_links.size());
  incident.insert(incident.end(), n.out_links.begin(), n.out_links.end());
  incident.insert(incident.end(), n.in_links.begin(), n.in_links.end());
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  return incident;
}

SwitchoverReport ApplySrlgFailure(DrtpNetwork& net, SrlgId srlg, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db) {
  // The group id typically comes straight from a scenario file or an RPC,
  // so an out-of-range value is bad *input*, not a broken invariant —
  // reject it as ParseError here rather than letting LinksInSrlg's
  // DRTP_CHECK fire.
  if (srlg < 0 || srlg >= net.topology().num_srlgs()) {
    throw ParseError("fail-srlg: group " + std::to_string(srlg) +
                     " out of range [0, " +
                     std::to_string(net.topology().num_srlgs()) + ")");
  }
  return ApplyLinkSetFailure(net, net.topology().LinksInSrlg(srlg), now,
                             reroute, db);
}

Ratio EvaluateSrlgSurvival(const DrtpNetwork& net) {
  Ratio r;
  const net::Topology& topo = net.topology();
  if (!topo.has_srlgs()) return r;
  std::vector<SrlgId> primary_groups;
  std::vector<SrlgId> backup_groups;
  for (const auto& [id, conn] : net.connections()) {
    if (!conn.has_backup()) continue;
    primary_groups.clear();
    for (const LinkId l : conn.primary.links()) {
      const SrlgId g = topo.srlg(l);
      if (g != kInvalidSrlg) primary_groups.push_back(g);
    }
    std::sort(primary_groups.begin(), primary_groups.end());
    primary_groups.erase(
        std::unique(primary_groups.begin(), primary_groups.end()),
        primary_groups.end());
    if (primary_groups.empty()) continue;
    backup_groups.clear();
    for (const routing::Path& b : conn.backups) {
      for (const LinkId l : b.links()) {
        const SrlgId g = topo.srlg(l);
        if (g != kInvalidSrlg) backup_groups.push_back(g);
      }
    }
    std::sort(backup_groups.begin(), backup_groups.end());
    for (const SrlgId g : primary_groups) {
      r.Add(!std::binary_search(backup_groups.begin(), backup_groups.end(),
                                g));
    }
  }
  return r;
}

}  // namespace drtp::core
