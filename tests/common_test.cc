// Tests for src/common: checks, rng, stats, flags, table.
#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "common/flags.h"
#include "common/function_ref.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace drtp {
namespace {

// ---- check ------------------------------------------------------------

TEST(Check, PassingCheckDoesNothing) { DRTP_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(DRTP_CHECK(false), CheckError);
}

TEST(Check, MessageCarriesContext) {
  try {
    DRTP_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// ---- rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.UniformInt(3, 6);
    ASSERT_GE(x, 3);
    ASSERT_LE(x, 6);
    saw_lo |= (x == 3);
    saw_hi |= (x == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformReal(1.5, 2.5);
    ASSERT_GE(x, 1.5);
    ASSERT_LT(x, 2.5);
  }
}

TEST(Rng, ExponentialMeanApproximatelyInverseRate) {
  Rng rng(3);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.Add(rng.Exponential(0.5));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(6);
  EXPECT_THROW(rng.Index(0), CheckError);
}

TEST(Rng, JitteredBackoffMatchesTheRetryFormulas) {
  // Bit for bit, over the same draws: the simulator's re-protect delay
  // (base · ldexp(1, attempt − 1) · U) and the protocol engine's
  // re-protect and reactive delays (base · U first, then
  // base · (1 << n) · U).
  const double base = 0.1;
  Rng helper(2024);
  Rng sim(2024);
  Rng proto(2024);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double delay = JitteredBackoff(helper, base, attempt - 1);
    const double nominal = base * std::ldexp(1.0, attempt - 1);
    EXPECT_EQ(delay, nominal * sim.UniformReal(0.5, 1.5)) << attempt;
    const double jitter = proto.UniformReal(0.5, 1.5);
    EXPECT_EQ(delay, attempt == 1 ? base * jitter
                                  : base * (1 << (attempt - 1)) * jitter)
        << attempt;
  }
  // Every delay lies in [base · 2^n / 2, base · 2^n · 3/2).
  Rng bounded(7);
  for (int n = 0; n < 8; ++n) {
    const double delay = JitteredBackoff(bounded, base, n);
    EXPECT_GE(delay, base * std::ldexp(0.5, n));
    EXPECT_LT(delay, base * std::ldexp(1.5, n));
  }
}

// ---- stats -------------------------------------------------------------

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  Rng rng(9);
  RunningStat all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.UniformReal(-1, 1);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(TimeWeightedStat, PiecewiseConstantAverage) {
  TimeWeightedStat s;
  s.Set(0.0, 10.0);
  s.Set(5.0, 20.0);  // 10 for [0,5)
  // 20 for [5,10): average = (50 + 100) / 10
  EXPECT_DOUBLE_EQ(s.Average(10.0), 15.0);
}

TEST(TimeWeightedStat, AverageBeforeStartIsZero) {
  TimeWeightedStat s;
  EXPECT_EQ(s.Average(5.0), 0.0);
}

TEST(Ratio, Aggregation) {
  Ratio r;
  r.Add(true);
  r.Add(false);
  r.AddMany(8, 8);
  EXPECT_DOUBLE_EQ(r.value(), 0.9);
  Ratio empty;
  EXPECT_EQ(empty.value(), 0.0);
}

// ---- flags -------------------------------------------------------------

TEST(FlagSet, ParsesAllTypes) {
  FlagSet flags("prog");
  auto& n = flags.Int64("n", 1, "count");
  auto& x = flags.Double("x", 0.5, "ratio");
  auto& s = flags.String("s", "a", "label");
  auto& b = flags.Bool("b", false, "toggle");
  const char* argv[] = {"prog", "--n=42", "--x", "2.5", "--s=hello", "--b"};
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
}

TEST(FlagSet, DefaultsSurviveNoArgs) {
  FlagSet flags("prog");
  auto& n = flags.Int64("n", 7, "count");
  const char* argv[] = {"prog"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(n, 7);
}

TEST(FlagSet, PositionalCollected) {
  FlagSet flags("prog");
  const char* argv[] = {"prog", "one", "two"};
  flags.Parse(3, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "one");
}

TEST(FlagSet, UsageMentionsEveryFlag) {
  FlagSet flags("prog");
  flags.Int64("alpha", 0, "the alpha");
  flags.Bool("beta", true, "the beta");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--beta"), std::string::npos);
}

// Each malformed value must be rejected with a message naming the flag —
// never silently truncated (stoll-style "4x" -> 4) or wrapped around.
TEST(FlagSet, RejectsValueBelowRange) {
  FlagSet flags("prog");
  flags.Int64("jobs", 1, "workers", 0, 4096);
  const char* argv[] = {"prog", "--jobs=-1"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
  EXPECT_NE(err.find("out of range [0, 4096]"), std::string::npos) << err;
}

TEST(FlagSet, RejectsValueAboveRange) {
  FlagSet flags("prog");
  flags.Int64("jobs", 1, "workers", 0, 4096);
  const char* argv[] = {"prog", "--jobs=4097"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(FlagSet, RejectsHierTopologyRanges) {
  // The ranges the drtpsim/drtpsweep hierarchical-generator flags declare:
  // a backbone ring needs >= 3 routers; PoP/metro fan-outs may be 0.
  FlagSet flags("prog");
  flags.Int64("hier-backbone", 10, "backbone routers", 3, 1'000'000);
  flags.Int64("hier-pops-per-backbone", 3, "pops", 0, 1'000'000);
  flags.Int64("hier-metro-per-pop", 32, "metro", 0, 1'000'000);
  {
    const char* argv[] = {"prog", "--hier-backbone=2"};
    const std::string err = flags.TryParse(2, const_cast<char**>(argv));
    EXPECT_NE(err.find("--hier-backbone"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range [3, 1000000]"), std::string::npos)
        << err;
  }
  {
    const char* argv[] = {"prog", "--hier-pops-per-backbone=-1"};
    const std::string err = flags.TryParse(2, const_cast<char**>(argv));
    EXPECT_NE(err.find("--hier-pops-per-backbone"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range [0, 1000000]"), std::string::npos)
        << err;
  }
  {
    const char* argv[] = {"prog", "--hier-metro-per-pop=1000001"};
    const std::string err = flags.TryParse(2, const_cast<char**>(argv));
    EXPECT_NE(err.find("out of range [0, 1000000]"), std::string::npos)
        << err;
  }
}

TEST(FlagSet, RejectsGarbageIntegerSuffix) {
  FlagSet flags("prog");
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--n=4x"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("'4x' is not an integer"), std::string::npos) << err;
}

TEST(FlagSet, RejectsEmptyIntegerValue) {
  FlagSet flags("prog");
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--n="};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("is not an integer"), std::string::npos) << err;
}

TEST(FlagSet, RejectsIntegerOverflow) {
  FlagSet flags("prog");
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--n=99999999999999999999"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("overflows"), std::string::npos) << err;
}

TEST(FlagSet, RejectsGarbageDouble) {
  FlagSet flags("prog");
  flags.Double("x", 0.5, "ratio");
  const char* argv[] = {"prog", "--x=0.5.5"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("'0.5.5' is not a number"), std::string::npos) << err;
}

TEST(FlagSet, RejectsGarbageBool) {
  FlagSet flags("prog");
  flags.Bool("b", false, "toggle");
  const char* argv[] = {"prog", "--b=maybe"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("is not a boolean"), std::string::npos) << err;
}

TEST(FlagSet, RejectsMissingValue) {
  FlagSet flags("prog");
  flags.Int64("n", 1, "count");
  const char* argv[] = {"prog", "--n"};
  const std::string err = flags.TryParse(2, const_cast<char**>(argv));
  EXPECT_NE(err.find("needs a value"), std::string::npos) << err;
}

TEST(FlagSet, AcceptsRangeBoundsAndPlusSign) {
  FlagSet flags("prog");
  auto& jobs = flags.Int64("jobs", 1, "workers", 0, 4096);
  auto& n = flags.Int64("n", 1, "count");
  const char* lo[] = {"prog", "--jobs=0", "--n=+42"};
  EXPECT_EQ(flags.TryParse(3, const_cast<char**>(lo)), "");
  EXPECT_EQ(jobs, 0);
  EXPECT_EQ(n, 42);
  const char* hi[] = {"prog", "--jobs=4096"};
  EXPECT_EQ(flags.TryParse(2, const_cast<char**>(hi)), "");
  EXPECT_EQ(jobs, 4096);
}

TEST(FlagSet, UsageShowsNarrowedRange) {
  FlagSet flags("prog");
  flags.Int64("jobs", 1, "workers", 0, 4096);
  flags.Int64("n", 1, "count");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("in [0, 4096]"), std::string::npos) << usage;
  // An unconstrained flag must not advertise the full int64 domain.
  EXPECT_EQ(usage.find("9223372036854775807"), std::string::npos) << usage;
}

// ---- table -------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.BeginRow();
  t.Cell("x");
  t.Cell(std::int64_t{10});
  t.BeginRow();
  t.Cell("longer");
  t.Cell(3.14159, 2);
  const std::string out = t.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsOverfilledRow) {
  TextTable t({"a"});
  t.BeginRow();
  t.Cell("1");
  EXPECT_THROW(t.Cell("2"), CheckError);
}

// ---- function_ref -----------------------------------------------------

int FreeFunctionDouble(int x) { return 2 * x; }

TEST(FunctionRef, InvokesCapturingLambda) {
  int calls = 0;
  const auto lambda = [&](int x) {
    ++calls;
    return x + 1;
  };
  FunctionRef<int(int)> ref = lambda;
  EXPECT_EQ(ref(41), 42);
  EXPECT_EQ(ref(1), 2);
  EXPECT_EQ(calls, 2);
}

TEST(FunctionRef, InvokesFreeFunction) {
  FunctionRef<int(int)> ref = FreeFunctionDouble;
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRef, DefaultAndNullptrAreFalsey) {
  FunctionRef<void()> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  FunctionRef<void()> null = nullptr;
  EXPECT_FALSE(static_cast<bool>(null));
  const auto noop = [] {};
  FunctionRef<void()> bound = noop;
  EXPECT_TRUE(static_cast<bool>(bound));
}

TEST(FunctionRef, BindsTemporaryForCallDuration) {
  // The common hot-path shape: a lambda temporary passed straight into a
  // function taking FunctionRef by value.
  const auto apply = [](FunctionRef<int(int)> f, int x) { return f(x); };
  EXPECT_EQ(apply([](int x) { return x * x; }, 7), 49);
}

TEST(FunctionRef, ReferencesNotCopiesState) {
  int counter = 0;
  const auto bump = [&] { ++counter; };
  FunctionRef<void()> ref = bump;
  FunctionRef<void()> copy = ref;  // copying the ref, not the callable
  ref();
  copy();
  EXPECT_EQ(counter, 2);
}

}  // namespace
}  // namespace drtp
