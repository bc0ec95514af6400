// One per-link protection-count vector under the APLV (§2.1), its per-SRLG
// aggregate and the bandwidth-weighted demand vector that sizes the §5
// spare pool (max_j demand[j], the general form of max_j APLV[j] × bw).
// It keeps its total, its maximum and how many elements hold the maximum.
// A removal of the maximum's last holder defers the rescan to the next read
// (only the spare target reads maxima per hop, and only the demand's), so
// Max() writes a cache: one vector is never read from two threads at once.
//
// Storage is a dense array at paper scale (num_links <= kWideLinkThreshold)
// and a sorted struct-of-arrays pair (keys_, vals_) of the nonzero elements
// above it: an ISP-scale link crosses a few hundred primaries, not all 30k
// links. Zero entries are erased, so the sparse form stays canonical and
// the defaulted equality stays semantic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "lsdb/conflict_vector.h"

namespace drtp::lsdb {

template <typename T>
class CountVector {
 public:
  CountVector() = default;
  /// `size` zero elements; the topology's `num_links` picks the storage.
  CountVector(int size, int num_links)
      : size_(size), wide_(num_links > kWideLinkThreshold) {
    DRTP_CHECK(size >= 0);
    if (!wide_) dense_.assign(static_cast<std::size_t>(size), T{0});
  }

  int size() const { return size_; }

  T at(std::int32_t j) const {
    DRTP_DCHECK(j >= 0 && j < size_);
    if (!wide_) return dense_[static_cast<std::size_t>(j)];
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
    if (it == keys_.end() || *it != j) return T{0};
    return vals_[static_cast<std::size_t>(it - keys_.begin())];
  }

  /// Σ_j at(j).
  std::int64_t total() const { return total_; }

  /// max_j at(j), and how many elements equal it (both 0 when all are 0).
  T Max() const {
    Resolve();
    return max_;
  }
  std::int32_t num_at_max() const {
    Resolve();
    return num_at_max_;
  }

  /// Number of nonzero elements.
  std::int32_t nonzero() const { return nonzero_; }

  /// Adds `delta` (> 0) to element j once per occurrence of j in `ids`.
  /// Every id is range-checked first, so a failed call changes nothing.
  void AddAll(std::span<const std::int32_t> ids, T delta) {
    DRTP_CHECK(delta > 0);
    for (const std::int32_t j : ids) CheckInRange(j);
    AddInRange(ids, delta);
  }

  /// Inverse of AddAll, checking each element as it is decremented (an id
  /// repeated k times needs k × delta). A failed check re-adds the prefix
  /// already decremented, then throws CheckError: the vector is untouched.
  void SubAll(std::span<const std::int32_t> ids, T delta) {
    DRTP_CHECK(delta > 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::int32_t j = ids[i];
      T* slot = Find(j);
      const bool present = slot != nullptr && *slot >= delta;
      if (!present) AddInRange(ids.first(i), delta);
      CheckInRange(j);
      DRTP_CHECK_MSG(present, "removing more than element " << j << " holds");
      if (*slot == max_) --num_at_max_;
      total_ -= delta;
      if ((*slot -= delta) == 0) {
        --nonzero_;
        if (wide_) {  // keep the sparse form canonical
          const auto k = slot - vals_.data();
          keys_.erase(keys_.begin() + k);
          vals_.erase(vals_.begin() + k);
        }
      }
    }
  }

  /// Σ_{j ∈ ids} at(j) for a sorted id list.
  std::int64_t SumOver(std::span<const std::int32_t> sorted_ids) const {
    std::int64_t sum = 0;
    if (!wide_) {
      for (const std::int32_t j : sorted_ids) {
        sum += dense_[static_cast<std::size_t>(j)];
      }
      return sum;
    }
    // Merge-join two sorted lists; both are short.
    std::size_t k = 0;
    for (const std::int32_t j : sorted_ids) {
      while (k < keys_.size() && keys_[k] < j) ++k;
      if (k == keys_.size()) break;
      if (keys_[k] == j) sum += vals_[k];
    }
    return sum;
  }

  friend bool operator==(const CountVector& a, const CountVector& b) {
    a.Resolve();
    b.Resolve();
    const auto fields = [](const CountVector& v) {
      return std::tie(v.size_, v.wide_, v.dense_, v.keys_, v.vals_, v.total_,
                      v.max_, v.num_at_max_, v.nonzero_);
    };
    return fields(a) == fields(b);
  }

 private:
  /// max_ > 0 with num_at_max_ == 0 marks a strict upper bound of every
  /// element, which Bump and SubAll keep (a Bump reaching it is its only
  /// holder). The rescan is one pass over locals: the running maximum rarely
  /// rises, so that branch predicts well, and holders count branch-free.
  void Resolve() const {
    if (max_ == 0 || num_at_max_ != 0) return;
    T m = 0;
    std::int32_t n = 0;
    for (const T c : wide_ ? vals_ : dense_) {
      if (c > m) {
        m = c;
        n = 0;
      }
      n += c == m ? 1 : 0;
    }
    max_ = m;
    num_at_max_ = m > 0 ? n : 0;
  }

  void CheckInRange(std::int32_t j) const {
    DRTP_CHECK_MSG(j >= 0 && j < size_,
                   "element " << j << " outside the " << size_
                              << "-element vector");
  }

  /// Element j's storage, or nullptr when j is out of range or (sparse)
  /// zero.
  T* Find(std::int32_t j) {
    if (j < 0 || j >= size_) return nullptr;
    if (!wide_) return &dense_[static_cast<std::size_t>(j)];
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
    if (it == keys_.end() || *it != j) return nullptr;
    return &vals_[static_cast<std::size_t>(it - keys_.begin())];
  }

  /// AddAll after its range check; also SubAll's restore.
  void AddInRange(std::span<const std::int32_t> ids, T delta) {
    if (!wide_) {
      for (const std::int32_t j : ids) {
        Bump(dense_[static_cast<std::size_t>(j)], delta);
      }
      return;
    }
    for (const std::int32_t j : ids) {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      const auto k = it - keys_.begin();
      if (it == keys_.end() || *it != j) {
        keys_.insert(it, j);
        vals_.insert(vals_.begin() + k, T{0});
      }
      Bump(vals_[static_cast<std::size_t>(k)], delta);
    }
  }

  void Bump(T& slot, T delta) {
    if (slot == 0) ++nonzero_;
    slot += delta;
    total_ += delta;
    if (slot > max_) {
      max_ = slot;
      num_at_max_ = 1;
    } else if (slot == max_) {
      ++num_at_max_;
    }
  }

  int size_ = 0;
  bool wide_ = false;
  std::vector<T> dense_;            // dense storage only
  std::vector<std::int32_t> keys_;  // sparse: sorted nonzero indices
  std::vector<T> vals_;             // sparse: values, parallel to keys_
  std::int64_t total_ = 0;
  mutable T max_ = 0;  // resolved on read, see Resolve()
  mutable std::int32_t num_at_max_ = 0;
  std::int32_t nonzero_ = 0;
};

}  // namespace drtp::lsdb
