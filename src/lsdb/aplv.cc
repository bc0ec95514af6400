#include "lsdb/aplv.h"

#include <algorithm>

namespace drtp::lsdb {

std::int32_t Aplv::count(LinkId j) const {
  DRTP_DCHECK(j >= 0 && j < size());
  if (!wide()) return counts_[static_cast<std::size_t>(j)];
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
  if (it == keys_.end() || *it != j) return 0;
  return cnts_[static_cast<std::size_t>(it - keys_.begin())];
}

void Aplv::AddPrimaryLset(const routing::LinkSet& lset) {
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < size());
    Increment(j);
  }
}

void Aplv::Increment(LinkId j) {
  std::int32_t c;
  if (!wide()) {
    c = ++counts_[static_cast<std::size_t>(j)];
  } else {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
    if (it != keys_.end() && *it == j) {
      c = ++cnts_[static_cast<std::size_t>(it - keys_.begin())];
    } else {
      cnts_.insert(cnts_.begin() + (it - keys_.begin()), 1);
      keys_.insert(it, j);
      c = 1;
    }
  }
  ++l1_;
  if (c == 1) cv_.Set(j, true);
  if (c > max_) {
    max_ = c;
    num_at_max_ = 1;
  } else if (c == max_) {
    ++num_at_max_;
  }
}

void Aplv::RemovePrimaryLset(const routing::LinkSet& lset) {
  // Validate and decrement in one pass. A check that fails re-adds the
  // prefix already decremented before it throws, so a caller that catches
  // the CheckError (tests, defensive teardown) keeps an untouched vector.
  // Checking each element after its earlier repeats were decremented is
  // the multiplicity check: a LSET that repeats a link needs that many
  // registered occurrences, not just a nonzero count.
  for (std::size_t i = 0; i < lset.size(); ++i) {
    const LinkId j = lset[i];
    const bool in_range = j >= 0 && j < size();
    std::int32_t* slot = nullptr;
    if (in_range && !wide()) {
      slot = &counts_[static_cast<std::size_t>(j)];
    } else if (in_range) {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      if (it != keys_.end() && *it == j) {
        slot = &cnts_[static_cast<std::size_t>(it - keys_.begin())];
      }
    }
    const bool present = slot != nullptr && *slot > 0;
    if (!present) {
      for (std::size_t k = 0; k < i; ++k) Increment(lset[k]);
    }
    DRTP_CHECK_MSG(in_range,
                   "link " << j << " outside the " << size() << "-link APLV");
    DRTP_CHECK_MSG(present, "removing absent primary link " << j);
    if (*slot == max_) --num_at_max_;
    const std::int32_t c = --*slot;
    --l1_;
    if (c == 0) {
      cv_.Set(j, false);
      if (wide()) {  // keep the sparse form canonical (no zero entries)
        const auto idx = slot - cnts_.data();
        keys_.erase(keys_.begin() + idx);
        cnts_.erase(cnts_.begin() + idx);
      }
    }
  }
  // Only when the last element holding the maximum was decremented can the
  // maximum drop; otherwise max_ (and its survivor count) stand as-is.
  if (max_ > 0 && num_at_max_ == 0) {
    max_ = 0;
    num_at_max_ = 0;
    const auto scan = [&](std::int32_t c) {
      if (c > max_) {
        max_ = c;
        num_at_max_ = 1;
      } else if (c == max_ && max_ > 0) {
        ++num_at_max_;
      }
    };
    if (!wide()) {
      for (std::int32_t c : counts_) scan(c);
    } else {
      for (std::int32_t c : cnts_) scan(c);
    }
  }
}

int Aplv::ConflictingLinksIn(const routing::LinkSet& lset) const {
  int n = 0;
  for (LinkId j : lset) {
    if (j >= 0 && j < size() && count(j) > 0) ++n;
  }
  return n;
}

}  // namespace drtp::lsdb
