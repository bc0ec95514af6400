#include "routing/path.h"

#include <algorithm>

#include "common/check.h"

namespace drtp::routing {

LinkSet MakeLinkSet(std::vector<LinkId> links) {
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

bool SetContains(const LinkSet& set, LinkId l) {
  return std::binary_search(set.begin(), set.end(), l);
}

int SetIntersectCount(const LinkSet& a, const LinkSet& b) {
  int count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

bool SetDisjoint(const LinkSet& a, const LinkSet& b) {
  return SetIntersectCount(a, b) == 0;
}

std::optional<Path> Path::FromLinks(const net::Topology& topo,
                                    std::vector<LinkId> links) {
  if (links.empty()) return std::nullopt;
  for (LinkId l : links) {
    if (l < 0 || l >= topo.num_links()) return std::nullopt;
  }
  std::vector<NodeId> nodes;
  nodes.reserve(links.size() + 1);
  nodes.push_back(topo.link(links.front()).src);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const net::Link& link = topo.link(links[i]);
    if (link.src != nodes.back()) return std::nullopt;
    nodes.push_back(link.dst);
  }
  const NodeId src = nodes.front();
  const NodeId dst = nodes.back();
  return Path(src, dst, std::move(links), std::move(nodes));
}

std::optional<Path> Path::FromNodes(const net::Topology& topo,
                                    std::span<const NodeId> nodes) {
  if (nodes.size() < 2) return std::nullopt;
  std::vector<LinkId> links;
  links.reserve(nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const LinkId l = topo.FindLink(nodes[i], nodes[i + 1]);
    if (l == kInvalidLink) return std::nullopt;
    links.push_back(l);
  }
  return FromLinks(topo, std::move(links));
}

bool Path::Contains(LinkId l) const {
  return std::find(links_.begin(), links_.end(), l) != links_.end();
}

bool Path::VisitsNode(NodeId n) const {
  return std::find(nodes_.begin(), nodes_.end(), n) != nodes_.end();
}

bool Path::IsSimple() const {
  std::vector<NodeId> sorted = nodes_;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

LinkSet Path::ToLinkSet() const { return MakeLinkSet(links_); }

int Path::OverlapCount(const Path& other) const {
  // |LSET(this) ∩ LSET(other)| without building either set: count each
  // distinct link of this path once if `other` has it. Routes are a few
  // hops long, so the quadratic scans beat two sorted copies.
  int count = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const auto first = links_.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(links_.begin(), first, *first) != first) continue;
    if (other.Contains(*first)) ++count;
  }
  return count;
}

}  // namespace drtp::routing
