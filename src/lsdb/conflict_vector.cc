#include "lsdb/conflict_vector.h"

#include <algorithm>
#include <bit>

namespace drtp::lsdb {

DRTP_POPCNT_CLONES int ConflictVector::PopCount() const {
  int count = 0;
  for (std::uint64_t w : words_) count += std::popcount(w);
  return count;
}

int ConflictVector::CountIn(const routing::LinkSet& lset) const {
  int count = 0;
  for (LinkId j : lset) {
    if (j >= 0 && j < num_links_ && Test(j)) ++count;
  }
  return count;
}

DRTP_POPCNT_CLONES int ConflictVector::AndPopCount(
    std::span<const std::uint64_t> mask) const {
  return AndPopCountInline(mask);
}

bool operator==(const ConflictVector& a, const ConflictVector& b) {
  if (a.num_links_ != b.num_links_) return false;
  const std::size_t common = std::min(a.words_.size(), b.words_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.words_[i] != b.words_[i]) return false;
  }
  const auto& longer = a.words_.size() > b.words_.size() ? a.words_ : b.words_;
  for (std::size_t i = common; i < longer.size(); ++i) {
    if (longer[i] != 0) return false;
  }
  return true;
}

}  // namespace drtp::lsdb
