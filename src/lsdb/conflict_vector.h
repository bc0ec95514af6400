// Conflict Vector (§3.2): the bit-vector abridgement of an APLV.
//
// CV_i[j] == 1 iff at least one primary channel runs through link L_j whose
// backup traverses L_i. D-LSR advertises CVs in the link-state database and
// prices a candidate backup link by how many of the primary's links are set
// in its CV.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "routing/path.h"

// The x86-64 baseline has no POPCNT instruction, so std::popcount there
// is a libgcc call per word. DRTP_POPCNT_CLONES compiles a function twice,
// once for popcnt and once for the baseline, and the loader picks the
// popcnt clone on CPUs that have it; both clones count the same integers.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__POPCNT__)
#define DRTP_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#else
#define DRTP_POPCNT_CLONES
#endif

namespace drtp::lsdb {

/// Link-count threshold above which per-link protection state switches
/// from dense eager layouts to sparse/lazy ones. Exactly two classes
/// read it: CountVector (dense array or sorted nonzero pairs) and
/// ConflictVector (full words or an elided zero tail). At or below it
/// (every paper-scale topology: 60 nodes ≈ 200 links) the containers
/// behave exactly as they always have — full-width allocation up front — so
/// word spans, digests and figure outputs are bit-stable. Above it, an
/// eagerly dense per-link vector costs O(links) each across O(links)
/// instances (terabytes at 10k nodes), so storage allocates on demand.
inline constexpr int kWideLinkThreshold = 4096;

/// Fixed-width bit vector indexed by LinkId.
///
/// Wide vectors (size() > kWideLinkThreshold) elide trailing zero words:
/// construction allocates nothing and Set(j, true) grows the word array
/// just far enough to hold bit j. All read operations treat the missing
/// tail as zero, and equality is semantic — a never-touched wide vector
/// equals one whose bits were set and cleared again.
class ConflictVector {
 public:
  ConflictVector() = default;
  explicit ConflictVector(int num_links)
      : num_links_(num_links),
        words_(num_links <= kWideLinkThreshold
                   ? static_cast<std::size_t>((num_links + 63) / 64)
                   : 0,
               0) {
    DRTP_CHECK(num_links >= 0);
  }

  int size() const { return num_links_; }

  bool Test(LinkId j) const {
    Bounds(j);
    const std::size_t w = Word(j);
    return w < words_.size() && ((words_[w] >> Bit(j)) & 1u);
  }

  void Set(LinkId j, bool value) {
    Bounds(j);
    const std::size_t w = Word(j);
    if (value) {
      if (w >= words_.size()) words_.resize(w + 1, 0);
      words_[w] |= std::uint64_t{1} << Bit(j);
    } else if (w < words_.size()) {
      words_[w] &= ~(std::uint64_t{1} << Bit(j));
    }
  }

  /// Number of set bits.
  int PopCount() const;

  /// |{ j in lset : CV[j] == 1 }| — the D-LSR conflict term
  /// Σ_{L_j ∈ LSET(P)} c_{i,j} of Eq. 5.
  int CountIn(const routing::LinkSet& lset) const;

  /// Word-wise CountIn: popcount of the AND against a precomputed bitmask
  /// (same word layout as words(), bit j = link L_j). Equivalent to
  /// CountIn over the lset the mask encodes, at ~64 links per cycle.
  int AndPopCount(std::span<const std::uint64_t> mask) const;

  /// AndPopCount's loop, inlined into the caller. SelectBackupLsr builds
  /// the primary's mask once per request and scores every candidate link
  /// with this from a search compiled as DRTP_POPCNT_CLONES, so the popcnt
  /// instruction runs in its own loop instead of a call per link.
  [[gnu::always_inline]] int AndPopCountInline(
      std::span<const std::uint64_t> mask) const {
    const std::size_t n = std::min(words_.size(), mask.size());
    int count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      count += std::popcount(words_[i] & mask[i]);
    }
    return count;
  }

  /// The raw bit words, least-significant bit of word 0 = link 0. Wide
  /// vectors may return fewer than (size()+63)/64 words — the elided tail
  /// is all-zero.
  std::span<const std::uint64_t> words() const { return words_; }

  /// Wire size of the advertisement payload in bytes (N bits, rounded up).
  int AdvertBytes() const { return (num_links_ + 7) / 8; }

  /// Semantic equality: same width and same bits; allocated-but-zero tail
  /// words compare equal to elided ones.
  friend bool operator==(const ConflictVector& a, const ConflictVector& b);

 private:
  void Bounds(LinkId j) const { DRTP_DCHECK(j >= 0 && j < num_links_); }
  static std::size_t Word(LinkId j) {
    return static_cast<std::size_t>(j) / 64;
  }
  static unsigned Bit(LinkId j) { return static_cast<unsigned>(j) % 64; }

  int num_links_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace drtp::lsdb
