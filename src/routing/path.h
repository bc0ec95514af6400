// Path and link-set algebra.
//
// A Path is a validated, loop-free-or-not sequence of directed links; LSET
// (§2.1) is the set of links in a route, used throughout APLV/Conflict
// Vector bookkeeping and overlap tests.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "net/topology.h"

namespace drtp::routing {

/// Sorted, duplicate-free set of link ids — the paper's LSET_r.
using LinkSet = std::vector<LinkId>;

/// Builds a LinkSet from arbitrary link ids (sorts, dedups).
LinkSet MakeLinkSet(std::vector<LinkId> links);

/// Membership test on a LinkSet (binary search).
bool SetContains(const LinkSet& set, LinkId l);

/// |a ∩ b| for two LinkSets.
int SetIntersectCount(const LinkSet& a, const LinkSet& b);

/// a ∩ b == ∅ ?
bool SetDisjoint(const LinkSet& a, const LinkSet& b);

/// A directed path through a topology. Immutable once built; construction
/// validates that consecutive links chain head-to-tail.
class Path {
 public:
  /// Validates continuity and non-emptiness; nullopt on violation.
  static std::optional<Path> FromLinks(const net::Topology& topo,
                                       std::vector<LinkId> links);

  /// Builds from a node sequence (n0, n1, ..., nk); every consecutive pair
  /// must be joined by a link. nullopt otherwise.
  static std::optional<Path> FromNodes(const net::Topology& topo,
                                       std::span<const NodeId> nodes);

  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }
  std::span<const LinkId> links() const { return links_; }
  int hops() const { return static_cast<int>(links_.size()); }

  /// The node sequence, length hops()+1.
  const std::vector<NodeId>& nodes() const { return nodes_; }

  bool Contains(LinkId l) const;
  bool VisitsNode(NodeId n) const;

  /// True iff no node repeats.
  bool IsSimple() const;

  /// LSET of this route (sorted copy).
  LinkSet ToLinkSet() const;

  /// Number of distinct links shared with `other` (|LSET ∩ LSET|);
  /// allocation-free.
  int OverlapCount(const Path& other) const;

  /// True iff no shared links (primary/backup disjointness test).
  bool LinkDisjoint(const Path& other) const {
    return OverlapCount(other) == 0;
  }

  friend bool operator==(const Path&, const Path&) = default;

 private:
  Path(NodeId src, NodeId dst, std::vector<LinkId> links,
       std::vector<NodeId> nodes)
      : src_(src), dst_(dst), links_(std::move(links)),
        nodes_(std::move(nodes)) {}

  NodeId src_;
  NodeId dst_;
  std::vector<LinkId> links_;
  std::vector<NodeId> nodes_;
};

}  // namespace drtp::routing
