// Tests for APLV, Conflict Vector and the link-state database — including
// the paper's worked numeric examples from §3.1 (Figure 1) and §3.2
// (Figure 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "lsdb/aplv.h"
#include "lsdb/conflict_vector.h"
#include "lsdb/count_vector.h"
#include "lsdb/link_state_db.h"

namespace drtp::lsdb {
namespace {

using routing::LinkSet;
using routing::MakeLinkSet;

// ---- paper worked examples -------------------------------------------------
//
// Figure 1 (§3.1): the 3x3 mesh example considers 13 unidirectional links
// L1..L13. PSET_7 = {P1, P3} with LSET_P1 = {L8, L12, L13} and
// LSET_P3 = {L11, L13}; the paper states
//   APLV_7 = (0,0,0,0,0,0,0,1,0,0,1,1,2)  and  ||APLV_7||_1 = 5,
// and for P-LSR's comparison ||APLV_2||_1 = 0, ||APLV_4||_1 = 2.
// We replay the registrations on 1-indexed ids (element 0 unused).

TEST(AplvPaper, Figure1Aplv7) {
  Aplv aplv7(14);
  aplv7.AddPrimaryLset(MakeLinkSet({8, 12, 13}));   // B1's primary P1
  aplv7.AddPrimaryLset(MakeLinkSet({11, 13}));      // B3's primary P3
  const std::vector<int> expect{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 2};
  for (LinkId j = 0; j < 14; ++j) {
    EXPECT_EQ(aplv7.count(j), expect[static_cast<std::size_t>(j)])
        << "APLV_7[" << j << "]";
  }
  EXPECT_EQ(aplv7.L1(), 5);  // ||APLV_7||_1 = 5 per the paper
  EXPECT_EQ(aplv7.Max(), 2); // L13 carries two conflicting primaries
}

TEST(AplvPaper, Figure1ConflictPrediction) {
  // "if L7 is selected as a link of the backup route for a DR-connection
  // whose primary channel goes through L12, it will generate conflicts
  // with two other backups" — i.e. both registered primaries conflict.
  Aplv aplv7(14);
  aplv7.AddPrimaryLset(MakeLinkSet({8, 12, 13}));
  aplv7.AddPrimaryLset(MakeLinkSet({11, 13}));
  // A new primary through L12 and L13 overlaps both registered LSETs.
  EXPECT_EQ(aplv7.ConflictingLinksIn(MakeLinkSet({12, 13})), 2);
}

// Figure 2 (§3.2): PSET_6 = {P1, P2} and the paper gives
//   CV_6 = (1,0,1,0,0,0,0,1,0,0,0,1,1),
// i.e. bits {1,3,8,12,13} set (1-indexed). A consistent split is
// LSET_P1 = {L1, L8, L12}, LSET_P2 = {L3, L13}.

TEST(AplvPaper, Figure2ConflictVector6) {
  Aplv aplv6(14);
  aplv6.AddPrimaryLset(MakeLinkSet({1, 8, 12}));
  aplv6.AddPrimaryLset(MakeLinkSet({3, 13}));
  const ConflictVector cv6 = aplv6.ToConflictVector();
  const std::vector<int> bits{0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1};
  for (LinkId j = 0; j < 14; ++j) {
    EXPECT_EQ(cv6.Test(j), bits[static_cast<std::size_t>(j)] == 1)
        << "CV_6[" << j << "]";
  }
  EXPECT_EQ(cv6.PopCount(), 5);
}

TEST(AplvPaper, Section5MultiplexingExample) {
  // §5: "let APLV_1 = (0,1,2,1,2). Then, if L3 or L5 fails, two
  // DR-connections will attempt to activate their backups through L1" —
  // spare sizing must therefore cover max(APLV) = 2 activations.
  Aplv aplv1(6);
  aplv1.AddPrimaryLset(MakeLinkSet({2, 3}));      // 1-indexed
  aplv1.AddPrimaryLset(MakeLinkSet({3, 4, 5}));
  aplv1.AddPrimaryLset(MakeLinkSet({5}));
  EXPECT_EQ(aplv1.count(1), 0);
  EXPECT_EQ(aplv1.count(2), 1);
  EXPECT_EQ(aplv1.count(3), 2);
  EXPECT_EQ(aplv1.count(4), 1);
  EXPECT_EQ(aplv1.count(5), 2);
  EXPECT_EQ(aplv1.Max(), 2);
}

// ---- Aplv unit behaviour ---------------------------------------------------

TEST(Aplv, AddRemoveRoundTripsToZero) {
  Aplv a(10);
  const LinkSet s1 = MakeLinkSet({1, 2, 3});
  const LinkSet s2 = MakeLinkSet({2, 3, 4});
  a.AddPrimaryLset(s1);
  a.AddPrimaryLset(s2);
  a.RemovePrimaryLset(s1);
  a.RemovePrimaryLset(s2);
  EXPECT_EQ(a, Aplv(10));
  EXPECT_EQ(a.L1(), 0);
  EXPECT_EQ(a.Max(), 0);
}

TEST(Aplv, RemovingAbsentThrows) {
  Aplv a(4);
  EXPECT_THROW(a.RemovePrimaryLset(MakeLinkSet({1})), CheckError);
}

TEST(Aplv, MaxRecomputesAfterDecrement) {
  Aplv a(5);
  a.AddPrimaryLset(MakeLinkSet({1}));
  a.AddPrimaryLset(MakeLinkSet({1}));
  a.AddPrimaryLset(MakeLinkSet({2}));
  EXPECT_EQ(a.Max(), 2);
  a.RemovePrimaryLset(MakeLinkSet({1}));
  EXPECT_EQ(a.Max(), 1);
  a.RemovePrimaryLset(MakeLinkSet({1}));
  EXPECT_EQ(a.Max(), 1);  // link 2 still has one
}

/// Property: incremental L1/Max always match a from-scratch recompute.
TEST(AplvProperty, IncrementalMatchesRecompute) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Aplv a(20);
    std::vector<LinkSet> registered;
    for (int step = 0; step < 500; ++step) {
      if (registered.empty() || rng.Bernoulli(0.6)) {
        std::vector<LinkId> raw;
        const int n = static_cast<int>(rng.UniformInt(1, 5));
        for (int i = 0; i < n; ++i)
          raw.push_back(static_cast<LinkId>(rng.Index(20)));
        const LinkSet s = MakeLinkSet(std::move(raw));
        a.AddPrimaryLset(s);
        registered.push_back(s);
      } else {
        const auto idx = rng.Index(registered.size());
        a.RemovePrimaryLset(registered[idx]);
        registered.erase(registered.begin() +
                         static_cast<std::ptrdiff_t>(idx));
      }
      // Recompute oracle.
      std::int64_t l1 = 0;
      std::int32_t mx = 0;
      std::vector<std::int32_t> counts(20, 0);
      for (const LinkSet& s : registered) {
        for (LinkId j : s) ++counts[static_cast<std::size_t>(j)];
      }
      for (std::int32_t c : counts) {
        l1 += c;
        mx = std::max(mx, c);
      }
      ASSERT_EQ(a.L1(), l1);
      ASSERT_EQ(a.Max(), mx);
    }
  }
}

/// Differential churn over RAW link lists — repeats and arbitrary order
/// allowed, unlike MakeLinkSet's sorted/deduped output — comparing
/// Max(), L1() and num_at_max() against a naive recount. A repeated link
/// exercises the multiplicity accounting in both the decrement loop and
/// the rescan. Odd seeds read the maximum only every seventh step, so
/// adds and removals also land while its rescan is still deferred.
TEST(AplvProperty, DifferentialChurnWithRepeatedLinks) {
  constexpr int kLinks = 16;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    Aplv a(kLinks);
    std::vector<LinkSet> registered;
    for (int step = 0; step < 600; ++step) {
      if (registered.empty() || rng.Bernoulli(0.55)) {
        LinkSet raw;
        const int n = static_cast<int>(rng.UniformInt(1, 6));
        for (int i = 0; i < n; ++i) {
          // ~1/3 chance of repeating an earlier pick in the same LSET.
          if (!raw.empty() && rng.Bernoulli(0.33)) {
            raw.push_back(raw[rng.Index(raw.size())]);
          } else {
            raw.push_back(static_cast<LinkId>(rng.Index(kLinks)));
          }
        }
        a.AddPrimaryLset(raw);
        registered.push_back(std::move(raw));
      } else {
        const auto idx = rng.Index(registered.size());
        a.RemovePrimaryLset(registered[idx]);
        registered.erase(registered.begin() +
                         static_cast<std::ptrdiff_t>(idx));
      }
      std::vector<std::int32_t> counts(kLinks, 0);
      std::int64_t l1 = 0;
      for (const LinkSet& s : registered) {
        for (LinkId j : s) ++counts[static_cast<std::size_t>(j)];
      }
      std::int32_t mx = 0;
      std::int32_t at_max = 0;
      for (std::int32_t c : counts) {
        l1 += c;
        if (c > mx) {
          mx = c;
          at_max = 1;
        } else if (c == mx && mx > 0) {
          ++at_max;
        }
      }
      ASSERT_EQ(a.L1(), l1) << "seed " << seed << " step " << step;
      if (seed % 2 == 1 && step % 7 != 0) continue;
      ASSERT_EQ(a.Max(), mx) << "seed " << seed << " step " << step;
      ASSERT_EQ(a.num_at_max(), at_max)
          << "seed " << seed << " step " << step;
    }
  }
}

/// A removal that fails validation must leave the vector untouched —
/// the old code decremented mid-loop before throwing, leaving counts,
/// L1, max tracking and the conflict vector torn for any caller that
/// catches the CheckError.
TEST(Aplv, FailedRemoveLeavesStateUntouched) {
  Aplv a(8);
  a.AddPrimaryLset(MakeLinkSet({1, 2, 3}));
  a.AddPrimaryLset(MakeLinkSet({2, 5}));
  const Aplv snapshot = a;

  // Link 6 was never registered; 1 and 2 (present) precede it in the
  // LSET, so the old code had already decremented them at throw time.
  EXPECT_THROW(a.RemovePrimaryLset(MakeLinkSet({1, 2, 6})), CheckError);
  EXPECT_EQ(a, snapshot);

  // Repeated link beyond its multiplicity: link 5 is registered once but
  // the LSET removes it twice.
  EXPECT_THROW(a.RemovePrimaryLset(LinkSet{5, 5}), CheckError);
  EXPECT_EQ(a, snapshot);

  // Out-of-range link after valid ones.
  EXPECT_THROW(a.RemovePrimaryLset(LinkSet{1, 99}), CheckError);
  EXPECT_EQ(a, snapshot);

  // The snapshot state is still fully functional afterwards.
  a.RemovePrimaryLset(MakeLinkSet({1, 2, 3}));
  a.RemovePrimaryLset(MakeLinkSet({2, 5}));
  EXPECT_EQ(a, Aplv(8));
}

/// Repeated links in one LSET count with multiplicity through add,
/// remove and the max rescan.
TEST(Aplv, RepeatedLinkMultiplicity) {
  Aplv a(4);
  const LinkSet twice{2, 2};  // raw, not MakeLinkSet (which dedups)
  a.AddPrimaryLset(twice);
  EXPECT_EQ(a.count(2), 2);
  EXPECT_EQ(a.Max(), 2);
  EXPECT_EQ(a.num_at_max(), 1);
  a.AddPrimaryLset(MakeLinkSet({1}));
  a.RemovePrimaryLset(twice);
  EXPECT_EQ(a.count(2), 0);
  EXPECT_EQ(a.Max(), 1);  // link 1 survives
  EXPECT_EQ(a.num_at_max(), 1);
  EXPECT_FALSE(a.conflict_vector().Test(2));
}

// ---- CountVector (the core of Aplv, SrlgVector and DemandVector) ----------

template <typename T>
class CountVectorProperty : public ::testing::Test {};
using CountTypes = ::testing::Types<std::int32_t, Bandwidth>;
TYPED_TEST_SUITE(CountVectorProperty, CountTypes);

/// Differential churn against a recount: random AddAll/SubAll with
/// repeated ids, plus SubAll calls that must fail (an element short of the
/// delta, or an out-of-range id, at a random position) and leave the
/// vector untouched. Ids come from a small pool so entries collide, empty
/// out and (wide) are erased.
template <typename T>
void CountVectorChurn(int size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> pool;
  for (int i = 0; i < 24; ++i) {
    pool.push_back(
        static_cast<std::int32_t>(rng.Index(static_cast<std::size_t>(size))));
  }
  CountVector<T> v(size, size);
  std::vector<std::pair<std::vector<std::int32_t>, T>> live;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.5)) {
      std::vector<std::int32_t> ids;
      const int n = static_cast<int>(rng.UniformInt(1, 6));
      for (int i = 0; i < n; ++i) {
        ids.push_back(!ids.empty() && rng.Bernoulli(0.2)
                          ? ids[rng.Index(ids.size())]
                          : pool[rng.Index(pool.size())]);
      }
      const T delta = static_cast<T>(rng.UniformInt(1, 5));
      v.AddAll(ids, delta);
      live.emplace_back(std::move(ids), delta);
    } else if (rng.Bernoulli(0.25)) {
      auto [ids, delta] = live[rng.Index(live.size())];
      std::int32_t bad = size;  // out of range unless a short element exists
      for (const std::int32_t j : pool) {
        if (v.at(j) < delta) bad = j;
      }
      ids.insert(ids.begin() + static_cast<std::ptrdiff_t>(
                                   rng.Index(ids.size() + 1)),
                 bad);
      const CountVector<T> before = v;
      EXPECT_THROW(v.SubAll(ids, delta), CheckError);
      ASSERT_EQ(v, before) << "size " << size << " step " << step;
    } else {
      const auto k = rng.Index(live.size());
      v.SubAll(live[k].first, live[k].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }

    std::vector<T> want(static_cast<std::size_t>(size), 0);
    for (const auto& [ids, delta] : live) {
      for (const std::int32_t j : ids) {
        want[static_cast<std::size_t>(j)] += delta;
      }
    }
    std::int64_t total = 0;
    T max = 0;
    std::int32_t nonzero = 0;
    for (std::int32_t j = 0; j < size; ++j) {
      const T w = want[static_cast<std::size_t>(j)];
      ASSERT_EQ(v.at(j), w) << "size " << size << " step " << step
                            << " element " << j;
      total += w;
      max = std::max(max, w);
      nonzero += w != 0 ? 1 : 0;
    }
    const auto at_max = static_cast<std::int32_t>(
        max > 0 ? std::count(want.begin(), want.end(), max) : 0);
    ASSERT_EQ(v.total(), total) << "size " << size << " step " << step;
    ASSERT_EQ(v.Max(), max) << "size " << size << " step " << step;
    ASSERT_EQ(v.num_at_max(), at_max) << "size " << size << " step " << step;
    ASSERT_EQ(v.nonzero(), nonzero) << "size " << size << " step " << step;
  }
  for (const auto& [ids, delta] : live) v.SubAll(ids, delta);
  EXPECT_EQ(v, CountVector<T>(size, size));
}

TYPED_TEST(CountVectorProperty, DenseMatchesRecount) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CountVectorChurn<TypeParam>(40, seed);
  }
}

TYPED_TEST(CountVectorProperty, WideMatchesRecount) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    CountVectorChurn<TypeParam>(kWideLinkThreshold + 300, seed);
  }
}

/// A removal of the maximum's last holder defers the rescan to the next
/// read. Equality must see the resolved maximum, and an add that reaches
/// the deferred bound leaves its element the only holder.
TEST(CountVector, DeferredMaximumResolvesForEqualityAndAdds) {
  using Ids = std::vector<std::int32_t>;
  CountVector<std::int32_t> a(4, 4);
  a.AddAll(Ids{0, 1, 1}, 1);  // {1, 2, 0, 0}
  a.SubAll(Ids{1}, 1);        // {1, 1, 0, 0}, maximum not yet rescanned
  CountVector<std::int32_t> b(4, 4);
  b.AddAll(Ids{0, 1}, 1);
  EXPECT_EQ(a, b);

  CountVector<std::int32_t> c(4, 4);
  c.AddAll(Ids{0, 1, 1}, 1);
  c.SubAll(Ids{1}, 1);
  c.AddAll(Ids{0}, 1);  // {2, 1, 0, 0}
  EXPECT_EQ(c.Max(), 2);
  EXPECT_EQ(c.num_at_max(), 1);
  c.SubAll(Ids{0, 0, 1}, 1);  // all zero, deferred again
  EXPECT_EQ(c, CountVector<std::int32_t>(4, 4));
  EXPECT_EQ(c.Max(), 0);
}

// ---- ConflictVector ---------------------------------------------------------

TEST(ConflictVector, SetTestClear) {
  ConflictVector cv(130);  // spans three words
  EXPECT_FALSE(cv.Test(0));
  cv.Set(0, true);
  cv.Set(64, true);
  cv.Set(129, true);
  EXPECT_TRUE(cv.Test(0));
  EXPECT_TRUE(cv.Test(64));
  EXPECT_TRUE(cv.Test(129));
  EXPECT_EQ(cv.PopCount(), 3);
  cv.Set(64, false);
  EXPECT_FALSE(cv.Test(64));
  EXPECT_EQ(cv.PopCount(), 2);
}

TEST(ConflictVector, CountInLinkSet) {
  ConflictVector cv(10);
  cv.Set(2, true);
  cv.Set(5, true);
  cv.Set(7, true);
  EXPECT_EQ(cv.CountIn(MakeLinkSet({1, 2, 5, 9})), 2);
  EXPECT_EQ(cv.CountIn(MakeLinkSet({})), 0);
}

TEST(ConflictVector, AdvertBytesRoundsUp) {
  EXPECT_EQ(ConflictVector(8).AdvertBytes(), 1);
  EXPECT_EQ(ConflictVector(9).AdvertBytes(), 2);
  EXPECT_EQ(ConflictVector(240).AdvertBytes(), 30);
}

// ---- LinkStateDb ------------------------------------------------------------

// ---- wide (> kWideLinkThreshold) representations ---------------------------
//
// Above kWideLinkThreshold links the APLV switches to sparse
// key/count storage and the CV elides trailing all-zero words; both must
// stay observationally identical to the dense forms.

TEST(AplvWide, SparseMatchesDenseOracleAcrossThreshold) {
  for (const int width :
       {kWideLinkThreshold, kWideLinkThreshold + 1,
        kWideLinkThreshold + 257}) {
    Rng rng(static_cast<std::uint64_t>(width));
    Aplv a(width);
    std::vector<std::int32_t> counts(static_cast<std::size_t>(width), 0);
    std::vector<LinkSet> registered;
    for (int step = 0; step < 200; ++step) {
      if (registered.empty() || rng.Bernoulli(0.6)) {
        std::vector<LinkId> raw;
        const int n = static_cast<int>(rng.UniformInt(1, 6));
        for (int i = 0; i < n; ++i) {
          raw.push_back(
              static_cast<LinkId>(rng.Index(static_cast<std::size_t>(width))));
        }
        const LinkSet s = MakeLinkSet(std::move(raw));
        a.AddPrimaryLset(s);
        for (LinkId j : s) ++counts[static_cast<std::size_t>(j)];
        registered.push_back(s);
      } else {
        const auto idx = rng.Index(registered.size());
        a.RemovePrimaryLset(registered[idx]);
        for (LinkId j : registered[idx]) --counts[static_cast<std::size_t>(j)];
        registered.erase(registered.begin() +
                         static_cast<std::ptrdiff_t>(idx));
      }
    }
    std::int64_t l1 = 0;
    std::int32_t mx = 0;
    for (std::int32_t c : counts) {
      l1 += c;
      mx = std::max(mx, c);
    }
    ASSERT_EQ(a.L1(), l1) << "width " << width;
    ASSERT_EQ(a.Max(), mx) << "width " << width;
    // Per-link counts: every touched link plus a random sample of the
    // (mostly untouched) tail.
    const ConflictVector cv = a.ToConflictVector();
    for (const LinkSet& s : registered) {
      for (LinkId j : s) {
        ASSERT_EQ(a.count(j), counts[static_cast<std::size_t>(j)]);
      }
    }
    for (int i = 0; i < 200; ++i) {
      const LinkId j =
          static_cast<LinkId>(rng.Index(static_cast<std::size_t>(width)));
      ASSERT_EQ(a.count(j), counts[static_cast<std::size_t>(j)]);
      ASSERT_EQ(cv.Test(j), counts[static_cast<std::size_t>(j)] > 0);
    }
    // Draining everything must land exactly on the empty state.
    for (const LinkSet& s : registered) a.RemovePrimaryLset(s);
    EXPECT_EQ(a, Aplv(width));
    EXPECT_EQ(a.ToConflictVector(), ConflictVector(width));
  }
}

TEST(ConflictVectorWide, CountInAndMaskSweepAgree) {
  const int width = kWideLinkThreshold + 512;
  Rng rng(99);
  ConflictVector cv(width);
  for (int i = 0; i < 300; ++i) {
    cv.Set(static_cast<LinkId>(rng.Index(static_cast<std::size_t>(width))),
           true);
  }
  std::vector<LinkId> raw;
  for (int i = 0; i < 40; ++i) {
    raw.push_back(
        static_cast<LinkId>(rng.Index(static_cast<std::size_t>(width))));
  }
  const LinkSet lset = MakeLinkSet(std::move(raw));
  std::vector<std::uint64_t> mask(static_cast<std::size_t>((width + 63) / 64),
                                  0);
  int oracle = 0;
  for (LinkId j : lset) {
    mask[static_cast<std::size_t>(j) / 64] |= std::uint64_t{1}
                                              << (static_cast<unsigned>(j) %
                                                  64);
    if (cv.Test(j)) ++oracle;
  }
  EXPECT_EQ(cv.CountIn(lset), oracle);
  EXPECT_EQ(cv.AndPopCount(mask), oracle);
}

TEST(ConflictVectorWide, EqualityIgnoresElidedTrailingWords) {
  const int width = kWideLinkThreshold + 1000;
  ConflictVector lazy(width);
  lazy.Set(5, true);
  ConflictVector materialized(width);
  materialized.Set(5, true);
  // Touching and clearing a high bit leaves allocated-but-zero tail words
  // behind; they must compare equal to the never-materialized tail.
  materialized.Set(width - 1, true);
  materialized.Set(width - 1, false);
  EXPECT_GT(materialized.words().size(), lazy.words().size());
  EXPECT_EQ(materialized, lazy);
  EXPECT_EQ(lazy, materialized);
  // Width is part of identity even when the bits agree.
  ConflictVector narrower(width - 1);
  narrower.Set(5, true);
  EXPECT_FALSE(narrower == lazy);
}

TEST(LinkStateDb, RecordsAreIndependent) {
  LinkStateDb db(4, 4);
  db.record(2).aplv_l1 = 9;
  db.record(2).available_for_backup = Mbps(3);
  EXPECT_EQ(db.record(2).aplv_l1, 9);
  EXPECT_EQ(db.record(1).aplv_l1, 0);
  EXPECT_EQ(db.record(2).available_for_backup, Mbps(3));
}

TEST(LinkStateDb, AdvertBytesScaleWithPayload) {
  LinkStateDb db(100, 100);
  const auto l1_bytes = db.AdvertBytesPerCycle(/*with_cv=*/false);
  const auto cv_bytes = db.AdvertBytesPerCycle(/*with_cv=*/true);
  EXPECT_EQ(l1_bytes, 100 * (12 + 8));
  EXPECT_EQ(cv_bytes, 100 * (12 + 13));  // 100 bits -> 13 bytes
  EXPECT_GT(cv_bytes, l1_bytes);
}

}  // namespace
}  // namespace drtp::lsdb
