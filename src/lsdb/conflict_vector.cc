#include "lsdb/conflict_vector.h"

#include <algorithm>
#include <bit>

// The x86-64 baseline has no POPCNT instruction, so std::popcount there
// is a libgcc call per word. A clone compiled for popcnt is picked at load
// time on CPUs that have it; both clones count the same integers.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__POPCNT__)
#define DRTP_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#else
#define DRTP_POPCNT_CLONES
#endif

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
  const std::size_t n = std::min(words_.size(), mask.size());
  int count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += std::popcount(words_[i] & mask[i]);
  }
  return count;
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
