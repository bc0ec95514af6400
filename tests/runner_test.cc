// Tests for the parallel sweep runner: thread-pool semantics (completion,
// stealing under imbalance, exception surfacing), the deterministic
// seeding contract (same sweep, any thread count -> bit-identical
// metrics), and the JSONL sink's schema-versioned, parseable output.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/sink.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"

namespace drtp::runner {
namespace {

// --- minimal JSON validator ------------------------------------------------
// Recursive-descent syntax check, enough to prove JSONL lines are real
// JSON without pulling in a parser dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- splitmix64 ------------------------------------------------------------

TEST(CellSeedTest, MatchesSplitmix64Reference) {
  // Reference: the stateful generator from the splitmix64 paper.
  std::uint64_t state = 42;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(CellSeed(42, i), next()) << "index " << i;
  }
}

TEST(CellSeedTest, KnownFirstValueOfZeroStream) {
  // Widely published first output of splitmix64 seeded with 0.
  EXPECT_EQ(CellSeed(0, 0), 0xE220A8397B1DCDAFULL);
}

TEST(CellSeedTest, DistinctAcrossCellsAndSeeds) {
  EXPECT_NE(CellSeed(1, 0), CellSeed(1, 1));
  EXPECT_NE(CellSeed(1, 0), CellSeed(2, 0));
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, StealsAcrossWorkersUnderImbalance) {
  // Tiny queues force submissions (and thieves) to spread across workers;
  // with one long task hogging a worker, the rest must still finish.
  ThreadPool pool(ThreadPool::Options{.threads = 3, .queue_capacity = 2});
  std::atomic<int> count{0};
  pool.Submit([&count] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    count.fetch_add(1);
  });
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 201);
}

TEST(ThreadPoolTest, TaskExceptionSurfacesAtWaitWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count, i] {
      if (i == 17) throw std::runtime_error("cell 17 failed");
      count.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Every non-throwing task still ran, and the pool stays usable.
  EXPECT_EQ(count.load(), 49);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Shutdown();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, DestructorJoinsWithoutWait) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

// --- sweep determinism -----------------------------------------------------

SweepSpec TinySpec() {
  SweepSpec spec;
  spec.seeds = {7};
  spec.degrees = {3.0};
  spec.patterns = {sim::TrafficPattern::kUniform};
  spec.lambdas = {0.4, 0.6};
  spec.schemes = {"D-LSR", "BF"};
  spec.duration = 400.0;
  return spec;
}

void ExpectBitIdentical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.with_backup, b.with_backup);
  EXPECT_EQ(a.pbk.hits, b.pbk.hits);
  EXPECT_EQ(a.pbk.trials, b.pbk.trials);
  // Doubles compared with == on purpose: the contract is bit-identity,
  // not approximation.
  EXPECT_EQ(a.avg_active, b.avg_active);
  EXPECT_EQ(a.prime_bw.mean(), b.prime_bw.mean());
  EXPECT_EQ(a.prime_bw.count(), b.prime_bw.count());
  EXPECT_EQ(a.spare_bw.mean(), b.spare_bw.mean());
  EXPECT_EQ(a.primary_hops.mean(), b.primary_hops.mean());
  EXPECT_EQ(a.backup_hops.mean(), b.backup_hops.mean());
  EXPECT_EQ(a.backup_overlap_links, b.backup_overlap_links);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.overbooked_hops, b.overbooked_hops);
  EXPECT_EQ(a.measure_start, b.measure_start);
  EXPECT_EQ(a.measure_end, b.measure_end);
}

TEST(SweepEngineTest, FourThreadSweepBitIdenticalToSerial) {
  SweepEngine serial(TinySpec());
  SweepEngine threaded(TinySpec());

  SweepEngine::RunOptions one;
  one.jobs = 1;
  const auto a = serial.Run(one);

  SweepEngine::RunOptions four;
  four.jobs = 4;
  const auto b = threaded.Run(four);

  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), TinySpec().NumCells());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.index, i);
    EXPECT_EQ(b[i].cell.index, i);
    EXPECT_EQ(a[i].cell.cell_seed, b[i].cell.cell_seed);
    ExpectBitIdentical(a[i].metrics, b[i].metrics);
  }
}

TEST(SweepEngineTest, CellsExpandInSpecOrderWithDerivedSeeds) {
  SweepEngine engine(TinySpec());
  const auto cells = engine.Cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].scheme, "D-LSR");
  EXPECT_EQ(cells[1].scheme, "BF");
  EXPECT_EQ(cells[0].lambda, 0.4);
  EXPECT_EQ(cells[2].lambda, 0.6);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].cell_seed, CellSeed(7, i));
  }
}

TEST(SweepEngineTest, RejectsUnknownTopoModel) {
  SweepSpec spec = TinySpec();
  spec.topo_model = "torus";
  EXPECT_THROW(SweepEngine{spec}, CheckError);
}

TEST(SweepEngineTest, HierModelTagsJsonlWaxmanStaysUntagged) {
  // Selecting the hierarchical generator stamps every JSONL line with the
  // model; the default waxman output stays byte-compatible with existing
  // results files (no "model" key at all).
  SweepSpec hier = TinySpec();
  hier.lambdas = {0.4};
  hier.schemes = {"D-LSR"};
  hier.duration = 60.0;
  hier.topo_model = "hier";
  hier.hier.backbone = 4;
  hier.hier.pops_per_backbone = 1;
  hier.hier.metro_per_pop = 2;
  std::ostringstream hs;
  {
    JsonlSink sink(hs);
    SweepEngine engine(hier);
    SweepEngine::RunOptions ro;
    ro.sinks = {&sink};
    engine.Run(ro);
  }
  std::istringstream hin(hs.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(hin, line)) {
    ++lines;
    EXPECT_NE(line.find("\"model\":\"hier\""), std::string::npos) << line;
  }
  EXPECT_GT(lines, 0u);

  std::ostringstream ws;
  {
    JsonlSink sink(ws);
    SweepEngine engine(TinySpec());
    SweepEngine::RunOptions ro;
    ro.sinks = {&sink};
    engine.Run(ro);
  }
  std::istringstream win(ws.str());
  while (std::getline(win, line)) {
    EXPECT_EQ(line.find("\"model\""), std::string::npos) << line;
  }
}

/// Bumps a counter that is not on kResultObsTags at every trace record:
/// instrumentation added inside a cell.
class UnlistedCounterSink : public obs::TraceSink {
 public:
  void Write(const obs::TraceEvent&) override {
    counter_.Add();
    ++writes;
  }
  int writes = 0;

 private:
  obs::Counter counter_ = obs::GetCounter("drtp.test.unlisted");
};

TEST(SweepEngineTest, CounterOffTheTagListLeavesLinesUnchanged) {
  SweepSpec spec = TinySpec();
  spec.lambdas = {0.4};
  spec.schemes = {"D-LSR"};
  SweepEngine engine(spec);
  const Cell cell = engine.Cells()[0];
  CellResult plain = engine.RunCell(cell);
  UnlistedCounterSink bumper;
  CellResult bumped = engine.RunCell(cell, &bumper);
  ASSERT_GT(bumper.writes, 0);
#ifndef DRTP_OBS_DISABLED
  EXPECT_FALSE(plain.obs_counters.empty());  // listed tags still ride along
#endif
  plain.wall_seconds = 0.0;
  bumped.wall_seconds = 0.0;
  EXPECT_EQ(CellResultToJson(plain), CellResultToJson(bumped));
}

TEST(SweepEngineTest, FailingCellRethrowsFromRun) {
  SweepSpec spec = TinySpec();
  spec.schemes = {"D-LSR", "NoSuchScheme"};
  SweepEngine engine(spec);
  SweepEngine::RunOptions ro;
  ro.jobs = 2;
  EXPECT_THROW(engine.Run(ro), std::exception);
}

// Records every Consume and whether Finish ran, like a results file would.
class RecordingSink : public ResultSink {
 public:
  void Consume(const CellResult& result) override {
    std::lock_guard<std::mutex> lk(mu_);
    cells_.push_back(result.cell.index);
  }
  void Finish() override { finished_ = true; }

  std::vector<std::size_t> cells() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cells_;
  }
  bool finished() const { return finished_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::size_t> cells_;
  bool finished_ = false;
};

TEST(SweepEngineTest, FailingCellStillFlushesCompletedCellsToSinks) {
  // Two good cells and two that throw (unknown scheme). The sweep must
  // rethrow — but only after the good cells reached the sinks AND every
  // sink's Finish() ran, so a crashed sweep leaves a usable results file.
  SweepSpec spec = TinySpec();
  spec.schemes = {"D-LSR", "NoSuchScheme"};
  SweepEngine engine(spec);
  RecordingSink recorder;
  std::ostringstream os;
  JsonlSink jsonl(os);
  SweepEngine::RunOptions ro;
  ro.jobs = 2;
  ro.sinks = {&recorder, &jsonl};
  EXPECT_THROW(engine.Run(ro), std::exception);
  EXPECT_TRUE(recorder.finished());
  EXPECT_EQ(recorder.cells().size(), 2u);  // the two D-LSR cells
  EXPECT_EQ(jsonl.lines_written(), 2);
  // Every flushed line is complete (single-write line atomicity).
  std::istringstream in(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  }
  EXPECT_EQ(lines, 2);
}

TEST(SweepEngineTest, CampaignAuditIsCleanAndDeterministicAcrossJobs) {
  SweepSpec spec = TinySpec();
  spec.lambdas = {0.4};
  spec.schemes = {"D-LSR"};
  spec.failures = 2;
  spec.node_failures = 2;
  spec.srlg_failures = 1;
  spec.bursts = 1;
  spec.burst_size = 3;
  spec.srlg_groups = 8;
  spec.mttr = 60.0;
  spec.audit = true;

  SweepEngine serial(spec);
  SweepEngine threaded(spec);
  SweepEngine::RunOptions one;
  one.jobs = 1;
  SweepEngine::RunOptions four;
  four.jobs = 4;
  const auto a = serial.Run(one);
  const auto b = threaded.Run(four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Every cell was audited, found clean, and the audit is reproducible
    // for any thread count.
    EXPECT_GT(a[i].audit_checks, 0);
    EXPECT_EQ(a[i].audit_violations, 0) << a[i].audit_jsonl;
    EXPECT_EQ(a[i].audit_checks, b[i].audit_checks);
    EXPECT_EQ(a[i].audit_violations, b[i].audit_violations);
    EXPECT_EQ(a[i].audit_jsonl, b[i].audit_jsonl);
    EXPECT_GT(a[i].metrics.failures_enacted, 0);
    ExpectBitIdentical(a[i].metrics, b[i].metrics);
    // The JSONL line carries the audit block and degradation counters.
    const std::string line = CellResultToJson(a[i]);
    EXPECT_NE(line.find("\"audit\":{\"checks\":"), std::string::npos);
    EXPECT_NE(line.find("\"degraded\":"), std::string::npos);
    EXPECT_NE(line.find("\"reprotect_retries\":"), std::string::npos);
    EXPECT_TRUE(JsonValidator(line).Valid());
  }
}

// --- sinks -----------------------------------------------------------------

TEST(JsonlSinkTest, LinesParseAndCarrySchemaVersion) {
  std::ostringstream os;
  JsonlSink sink(os);
  SweepEngine engine(TinySpec());
  SweepEngine::RunOptions ro;
  ro.jobs = 2;
  ro.sinks = {&sink};
  const auto results = engine.Run(ro);
  EXPECT_EQ(sink.lines_written(),
            static_cast<std::int64_t>(results.size()));

  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"drtp.sweep/1\""), std::string::npos);
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  }
  EXPECT_EQ(lines, results.size());
}

/// A stream buffer that accepts nothing, like a full disk.
class FullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override {
    return 0;
  }
};

TEST(JsonlSinkTest, FailsWhenOutputIsLost) {
  FullBuf full;
  std::ostream os(&full);
  JsonlSink sink(os);
  SweepEngine engine(TinySpec());
  SweepEngine::RunOptions ro;
  ro.sinks = {&sink};
  EXPECT_THROW(engine.Run(ro), CheckError);
  EXPECT_EQ(sink.lines_written(), 0);
  EXPECT_THROW(sink.Finish(), CheckError);
}

TEST(JsonWriterTest, EscapesAndFormats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\nd");
  w.Key("i").Int(-42);
  w.Key("d").Double(0.1);
  w.Key("nan").Double(std::nan(""));
  w.Key("b").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-42,\"d\":0.1,"
            "\"nan\":null,\"b\":true}");
  EXPECT_TRUE(JsonValidator(w.str()).Valid());
}

TEST(TableSinkTest, RendersOneRowPerCellInIndexOrder) {
  std::ostringstream os;
  TableSink sink(os);
  for (const std::size_t index : {2u, 0u, 1u}) {
    CellResult r;
    r.cell.index = index;
    r.cell.scheme = "D-LSR";
    r.cell.lambda = 0.1 * static_cast<double>(index);
    sink.Consume(r);
  }
  sink.Finish();
  const std::string text = os.str();
  // Header + rule + 3 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  EXPECT_LT(text.find("0.10"), text.find("0.20"));
}

}  // namespace
}  // namespace drtp::runner
