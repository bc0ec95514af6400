// Checkpoint journal, truncate-and-verify resume, sharding and merge.
//
// The crash tests simulate SIGKILL by chopping the on-disk files at
// arbitrary byte offsets — exactly what a killed process leaves behind,
// since both the sink and the journal are written one flushed line at a
// time. The recovery contract under test: resume after any chop point
// reproduces the uninterrupted run's bytes (modulo the wall_s field, the
// one nondeterministic value in a result line).
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/digest.h"
#include "common/error.h"
#include "runner/checkpoint.h"
#include "runner/sink.h"
#include "runner/sweep.h"
#include "scratch_dir.h"

namespace drtp::runner {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under this process's own.
std::string TestDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = test::ProcessScratchDir() /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
  ASSERT_TRUE(os.good()) << path;
}

// Removes every `"wall_s":<value>,` — the only field that differs
// between two runs of the same cell (same convention as the CI byte
// comparisons).
std::string StripWall(std::string s) {
  static constexpr std::string_view kKey = "\"wall_s\":";
  for (std::size_t pos; (pos = s.find(kKey)) != std::string::npos;) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      ADD_FAILURE() << "wall_s is not comma-terminated in: " << s;
      break;
    }
    s.erase(pos, comma - pos + 1);
  }
  return s;
}

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

CheckpointHeader HeaderFor(const SweepSpec& spec,
                           ShardAssignment shard = {}) {
  CheckpointHeader h;
  h.spec_digest = SpecDigest(spec);
  h.num_cells = spec.NumCells();
  h.shard = shard;
  return h;
}

// Runs `spec` (optionally narrowed to `only`) into a journaled sink at
// `sink_path`, the way drtpsweep wires a fresh checkpointed run.
void RunJournaled(const SweepSpec& spec, const std::string& sink_path,
                  ShardAssignment shard = {},
                  std::optional<std::vector<std::size_t>> only = {}) {
  SweepEngine engine(spec);
  CheckpointJournal journal(JournalPathFor(sink_path), /*append=*/false);
  journal.WriteHeader(HeaderFor(spec, shard));
  JsonlSink sink(sink_path, /*append=*/false);
  sink.AttachJournal(&journal);
  SweepEngine::RunOptions ro;
  ro.sinks = {&sink};
  ro.only = std::move(only);
  engine.Run(ro);
}

// Recovers `sink_path` and reruns whatever cells the journal lacks,
// the way drtpsweep --resume does.
void ResumeJournaled(const SweepSpec& spec, const std::string& sink_path,
                     ShardAssignment shard = {}) {
  const CheckpointHeader expected = HeaderFor(spec, shard);
  const RecoveredCheckpoint rec = RecoverCheckpoint(sink_path, expected);
  CheckpointJournal journal(JournalPathFor(sink_path),
                            /*append=*/!rec.fresh);
  if (rec.fresh) journal.WriteHeader(expected);
  JsonlSink sink(sink_path, /*append=*/true);
  sink.AttachJournal(&journal);
  std::vector<std::size_t> todo;
  for (std::size_t k = 0; k < spec.NumCells(); ++k) {
    if (shard.Owns(k) && !rec.Done(k)) todo.push_back(k);
  }
  SweepEngine engine(spec);
  SweepEngine::RunOptions ro;
  ro.sinks = {&sink};
  ro.only = std::move(todo);
  engine.Run(ro);
}

// ---- shard parsing and paths ---------------------------------------------

TEST(ShardParse, AcceptsWellFormed) {
  const ShardAssignment s = ParseShard("2/4");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.num_shards, 4u);
  EXPECT_TRUE(s.Owns(2));
  EXPECT_TRUE(s.Owns(6));
  EXPECT_FALSE(s.Owns(3));
}

TEST(ShardParse, RejectsMalformed) {
  EXPECT_THROW(ParseShard(""), ParseError);
  EXPECT_THROW(ParseShard("3/2"), ParseError);    // index >= count
  EXPECT_THROW(ParseShard("4/4"), ParseError);
  EXPECT_THROW(ParseShard("2/0"), ParseError);
  EXPECT_THROW(ParseShard("x/4"), ParseError);
  EXPECT_THROW(ParseShard("2/"), ParseError);
  EXPECT_THROW(ParseShard("/4"), ParseError);
  EXPECT_THROW(ParseShard("2/4x"), ParseError);
  EXPECT_THROW(ParseShard("-1/4"), ParseError);
  EXPECT_THROW(ParseShard("1/99999999"), ParseError);  // implausible N
}

TEST(ShardedPathTest, InsertsBeforeFinalExtension) {
  const ShardAssignment two{1, 2};
  EXPECT_EQ(ShardedPath("out.jsonl", two), "out.shard-1.jsonl");
  EXPECT_EQ(ShardedPath("dir/run.out.jsonl", two), "dir/run.out.shard-1.jsonl");
  EXPECT_EQ(ShardedPath("out", two), "out.shard-1");
  EXPECT_EQ(ShardedPath("out.jsonl", ShardAssignment{}), "out.jsonl");
}

/// Only a regular file (or a path not yet created) gets a journal beside
/// it: a device or FIFO, named directly or through a symlink, swallows
/// lines that a journal would then vouch for, and --resume could neither
/// truncate nor re-read it.
TEST(KeepsJournalTest, OnlyRegularFilesAndNewPaths) {
  const std::string dir = TestDir();
  WriteFile(dir + "/regular.jsonl", "");
  EXPECT_TRUE(KeepsJournal(dir + "/regular.jsonl"));
  EXPECT_TRUE(KeepsJournal(dir + "/not-yet.jsonl"));

  fs::create_symlink("/dev/null", dir + "/sink");
  EXPECT_FALSE(KeepsJournal(dir + "/sink"));
  EXPECT_FALSE(KeepsJournal("/dev/null"));

  const std::string fifo = dir + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_FALSE(KeepsJournal(fifo));
  fs::create_symlink(fifo, dir + "/fifo-link");
  EXPECT_FALSE(KeepsJournal(dir + "/fifo-link"));

  // Deciding creates nothing.
  EXPECT_FALSE(fs::exists(JournalPathFor(dir + "/sink")));
  EXPECT_FALSE(fs::exists(dir + "/not-yet.jsonl"));
}

TEST(SpecDigestTest, StableAndSensitive) {
  const SweepSpec a = TinySpec();
  const SweepSpec b = TinySpec();
  EXPECT_EQ(SpecDigest(a), SpecDigest(b));
  EXPECT_EQ(SpecDigest(a).size(), 16u);

  SweepSpec changed = TinySpec();
  changed.lambdas = {0.4, 0.7};
  EXPECT_NE(SpecDigest(a), SpecDigest(changed));
  changed = TinySpec();
  changed.seeds = {8};
  EXPECT_NE(SpecDigest(a), SpecDigest(changed));
  changed = TinySpec();
  changed.audit = true;
  EXPECT_NE(SpecDigest(a), SpecDigest(changed));
  changed = TinySpec();
  changed.failures = 1;
  EXPECT_NE(SpecDigest(a), SpecDigest(changed));
}

TEST(SpecDigestTest, WaxmanDigestUnchangedByHierFields) {
  // Historical waxman journals must keep verifying: the hierarchical
  // topology knobs enter the digest only when the model is selected, so
  // a default-model spec digests identically whatever `hier` holds.
  const SweepSpec a = TinySpec();
  SweepSpec b = TinySpec();
  b.hier.backbone = 99;
  b.hier.metro_per_pop = 5;
  EXPECT_EQ(SpecDigest(a), SpecDigest(b));

  SweepSpec hier = TinySpec();
  hier.topo_model = "hier";
  EXPECT_NE(SpecDigest(a), SpecDigest(hier));
  // ...and once selected, the knobs are load-bearing.
  SweepSpec hier2 = hier;
  hier2.hier.metro_per_pop += 1;
  EXPECT_NE(SpecDigest(hier), SpecDigest(hier2));
}

// ---- journal recovery on synthetic files ---------------------------------

// Builds a sink file from `lines` (newline appended to each) plus a
// journal that vouches for all of them.
void WriteSyntheticPair(const std::string& sink_path,
                        const CheckpointHeader& header,
                        const std::vector<std::string>& lines) {
  std::string sink;
  CheckpointJournal journal(JournalPathFor(sink_path), /*append=*/false);
  journal.WriteHeader(header);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string line = lines[i] + "\n";
    sink += line;
    CheckpointEntry e;
    e.cell = i;
    e.cell_seed = 100 + i;
    e.digest = Fnv1a(line);
    journal.Append(e);
  }
  WriteFile(sink_path, sink);
}

TEST(RecoverCheckpointTest, VerifiedPairRoundTrips) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 3, .shard = {}};
  WriteSyntheticPair(sink, header, {"alpha", "beta", "gamma"});

  const RecoveredCheckpoint rec = RecoverCheckpoint(sink, header);
  EXPECT_FALSE(rec.fresh);
  ASSERT_EQ(rec.entries.size(), 3u);
  EXPECT_EQ(rec.entries[1].cell, 1u);
  EXPECT_EQ(rec.entries[1].cell_seed, 101u);
  EXPECT_TRUE(rec.Done(0));
  EXPECT_TRUE(rec.Done(2));
  EXPECT_EQ(rec.sink_bytes, ReadFile(sink).size());
  EXPECT_EQ(ReadFile(sink), "alpha\nbeta\ngamma\n");
}

TEST(RecoverCheckpointTest, DropsUnjournaledTrailingLine) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 4, .shard = {}};
  WriteSyntheticPair(sink, header, {"alpha", "beta"});
  // A third line landed but the process died before journaling it.
  WriteFile(sink, ReadFile(sink) + "gamma\n");

  const RecoveredCheckpoint rec = RecoverCheckpoint(sink, header);
  EXPECT_EQ(rec.entries.size(), 2u);
  EXPECT_FALSE(rec.Done(2));
  EXPECT_EQ(ReadFile(sink), "alpha\nbeta\n");
}

TEST(RecoverCheckpointTest, DropsTornTailsOfBothFiles) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 4, .shard = {}};
  WriteSyntheticPair(sink, header, {"alpha", "beta", "gamma"});
  // Chop mid-way through the last sink line AND the last journal line.
  const std::string sink_bytes = ReadFile(sink);
  WriteFile(sink, sink_bytes.substr(0, sink_bytes.size() - 3));
  const std::string journal = JournalPathFor(sink);
  const std::string journal_bytes = ReadFile(journal);
  WriteFile(journal, journal_bytes.substr(0, journal_bytes.size() - 5));

  const RecoveredCheckpoint rec = RecoverCheckpoint(sink, header);
  EXPECT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(ReadFile(sink), "alpha\nbeta\n");
  // Recovery is idempotent: the truncated pair verifies cleanly.
  const RecoveredCheckpoint again = RecoverCheckpoint(sink, header);
  EXPECT_EQ(again.entries.size(), 2u);
}

TEST(RecoverCheckpointTest, StopsAtFirstDigestMismatch) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 3, .shard = {}};
  WriteSyntheticPair(sink, header, {"alpha", "beta", "gamma"});
  WriteFile(sink, "alpha\nbetA\ngamma\n");  // tamper line 2

  const RecoveredCheckpoint rec = RecoverCheckpoint(sink, header);
  EXPECT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(ReadFile(sink), "alpha\n");
}

TEST(RecoverCheckpointTest, MissingJournalResetsSink) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  WriteFile(sink, "stale bytes nobody can vouch for\n");
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 2, .shard = {}};

  const RecoveredCheckpoint rec = RecoverCheckpoint(sink, header);
  EXPECT_TRUE(rec.fresh);
  EXPECT_TRUE(rec.entries.empty());
  EXPECT_EQ(ReadFile(sink), "");
}

TEST(RecoverCheckpointTest, RefusesForeignJournal) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  CheckpointHeader header{.spec_digest = "00000000deadbeef", .num_cells = 3, .shard = {}};
  WriteSyntheticPair(sink, header, {"alpha"});

  CheckpointHeader other = header;
  other.spec_digest = "00000000cafef00d";
  EXPECT_THROW(RecoverCheckpoint(sink, other), ParseError);

  other = header;
  other.num_cells = 5;
  EXPECT_THROW(RecoverCheckpoint(sink, other), ParseError);

  other = header;
  other.shard = ShardAssignment{1, 2};
  EXPECT_THROW(RecoverCheckpoint(sink, other), ParseError);
}

TEST(CheckpointJournalTest, EntryJsonCarriesAuditPayload) {
  CheckpointEntry e;
  e.cell = 3;
  e.cell_seed = 42;
  e.digest = 0xabcdef;
  e.audit_checks = 5;
  e.audit_violations = 1;
  e.audit_jsonl = "{\"schema\":\"drtp.audit/1\"}\n";
  const std::string line = CheckpointEntryToJson(e);
  EXPECT_NE(line.find("\"cell\":3"), std::string::npos) << line;
  EXPECT_NE(line.find(DigestHex(e.digest)), std::string::npos) << line;
  EXPECT_NE(line.find("drtp.audit/1"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << "journal lines are flat";
}

// ---- crash-append semantics on a real sweep ------------------------------

// The satellite-mandated chop test: write a journaled sweep, then chop
// the sink at EVERY byte offset of the last line (simulating a SIGKILL
// mid-write), resume, and demand the uninterrupted bytes back.
TEST(CrashResumeTest, ChopSinkAtEveryByteOffsetOfLastLine) {
  const std::string dir = TestDir();
  const SweepSpec spec = TinySpec();
  const std::string golden_path = dir + "/golden.jsonl";
  RunJournaled(spec, golden_path);
  const std::string golden = ReadFile(golden_path);
  const std::string golden_journal = ReadFile(JournalPathFor(golden_path));
  ASSERT_GT(golden.size(), 2u);
  ASSERT_EQ(golden.back(), '\n');

  const std::size_t last_start = golden.rfind('\n', golden.size() - 2) + 1;
  ASSERT_LT(last_start, golden.size());
  const std::string sink = dir + "/chopped.jsonl";
  for (std::size_t cut = last_start; cut <= golden.size(); ++cut) {
    WriteFile(sink, golden.substr(0, cut));
    WriteFile(JournalPathFor(sink), golden_journal);
    ResumeJournaled(spec, sink);
    EXPECT_EQ(StripWall(ReadFile(sink)), StripWall(golden)) << "cut " << cut;
    // The resumed pair must itself verify end-to-end.
    const RecoveredCheckpoint rec =
        RecoverCheckpoint(sink, HeaderFor(spec));
    EXPECT_EQ(rec.entries.size(), spec.NumCells()) << "cut " << cut;
  }
}

TEST(CrashResumeTest, ResumeOfCompleteRunIsNoOp) {
  const std::string dir = TestDir();
  const SweepSpec spec = TinySpec();
  const std::string sink = dir + "/out.jsonl";
  RunJournaled(spec, sink);
  const std::string before = ReadFile(sink);
  const std::string journal_before = ReadFile(JournalPathFor(sink));

  ResumeJournaled(spec, sink);
  // Nothing reran, so the bytes — wall_s included — are untouched.
  EXPECT_EQ(ReadFile(sink), before);
  EXPECT_EQ(ReadFile(JournalPathFor(sink)), journal_before);
}

TEST(CrashResumeTest, ResumeRefusesChangedSpec) {
  const std::string dir = TestDir();
  const std::string sink = dir + "/out.jsonl";
  RunJournaled(TinySpec(), sink);
  SweepSpec changed = TinySpec();
  changed.lambdas = {0.5};
  EXPECT_THROW(RecoverCheckpoint(sink, HeaderFor(changed)), ParseError);
}

// ---- sharding and merge --------------------------------------------------

TEST(MergeShardsTest, ReassemblesCanonicalOrder) {
  const std::string dir = TestDir();
  const SweepSpec spec = TinySpec();
  const std::string golden_path = dir + "/golden.jsonl";
  RunJournaled(spec, golden_path);

  const std::string base = dir + "/out.jsonl";
  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < 2; ++i) {
    const ShardAssignment shard{i, 2};
    std::vector<std::size_t> owned;
    for (std::size_t k = 0; k < spec.NumCells(); ++k) {
      if (shard.Owns(k)) owned.push_back(k);
    }
    const std::string path = ShardedPath(base, shard);
    RunJournaled(spec, path, shard, owned);
    shard_paths.push_back(path);
  }

  const MergeReport report = MergeShards(shard_paths, base, "");
  EXPECT_EQ(report.shards, 2u);
  EXPECT_EQ(report.cells, spec.NumCells());
  EXPECT_EQ(StripWall(ReadFile(base)), StripWall(ReadFile(golden_path)));
  // The merged pair verifies and resumes like a native 1-process run.
  const RecoveredCheckpoint rec = RecoverCheckpoint(base, HeaderFor(spec));
  EXPECT_EQ(rec.entries.size(), spec.NumCells());
}

TEST(MergeShardsTest, RefusesIncompleteOrDuplicateShardSets) {
  const std::string dir = TestDir();
  const SweepSpec spec = TinySpec();
  const std::string base = dir + "/out.jsonl";
  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < 2; ++i) {
    const ShardAssignment shard{i, 2};
    std::vector<std::size_t> owned;
    for (std::size_t k = 0; k < spec.NumCells(); ++k) {
      if (shard.Owns(k)) owned.push_back(k);
    }
    const std::string path = ShardedPath(base, shard);
    RunJournaled(spec, path, shard, owned);
    shard_paths.push_back(path);
  }

  EXPECT_THROW(MergeShards({shard_paths[0]}, dir + "/m.jsonl", ""),
               ParseError);
  EXPECT_THROW(
      MergeShards({shard_paths[0], shard_paths[0]}, dir + "/m.jsonl", ""),
      ParseError);
}

TEST(MergeShardsTest, RefusesMismatchedSpecsAndTamperedLines) {
  const std::string dir = TestDir();
  const SweepSpec spec = TinySpec();
  const std::string base = dir + "/out.jsonl";
  for (std::size_t i = 0; i < 2; ++i) {
    const ShardAssignment shard{i, 2};
    std::vector<std::size_t> owned;
    for (std::size_t k = 0; k < spec.NumCells(); ++k) {
      if (shard.Owns(k)) owned.push_back(k);
    }
    RunJournaled(spec, ShardedPath(base, shard), shard, owned);
  }
  const std::string s0 = ShardedPath(base, {0, 2});
  const std::string s1 = ShardedPath(base, {1, 2});

  // Tamper one result byte in shard 1: its journaled digest must catch it.
  std::string bytes = ReadFile(s1);
  bytes[bytes.size() / 2] ^= 0x20;
  WriteFile(s1, bytes);
  EXPECT_THROW(MergeShards({s0, s1}, dir + "/m.jsonl", ""), ParseError);

  // Rebuild shard 1 from a different spec: spec digests disagree.
  SweepSpec other = TinySpec();
  other.lambdas = {0.5, 0.9};
  std::vector<std::size_t> owned;
  const ShardAssignment shard1{1, 2};
  for (std::size_t k = 0; k < other.NumCells(); ++k) {
    if (shard1.Owns(k)) owned.push_back(k);
  }
  RunJournaled(other, s1, shard1, owned);
  EXPECT_THROW(MergeShards({s0, s1}, dir + "/m.jsonl", ""), ParseError);
}

// ---- RunOptions::only ----------------------------------------------------

TEST(SweepEngineOnly, RunsExactlyTheSelectionInGridOrder) {
  SweepEngine engine(TinySpec());
  SweepEngine::RunOptions ro;
  ro.only = std::vector<std::size_t>{2, 0};
  const std::vector<CellResult> results = engine.Run(ro);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].cell.index, 0u);
  EXPECT_EQ(results[1].cell.index, 2u);

  SweepEngine::RunOptions none;
  none.only = std::vector<std::size_t>{};
  EXPECT_TRUE(engine.Run(none).empty());
}

TEST(SweepEngineOnly, RejectsDuplicatesAndOutOfRange) {
  SweepEngine engine(TinySpec());
  SweepEngine::RunOptions dup;
  dup.only = std::vector<std::size_t>{1, 1};
  EXPECT_THROW(engine.Run(dup), CheckError);
  SweepEngine::RunOptions oob;
  oob.only = std::vector<std::size_t>{99};
  EXPECT_THROW(engine.Run(oob), CheckError);
}

// The selection must yield bit-identical cells to a full-grid run: same
// seeds, same shared caches, no order dependence.
TEST(SweepEngineOnly, SelectedCellsMatchFullRun) {
  SweepEngine full(TinySpec());
  const std::vector<CellResult> all = full.Run({});
  SweepEngine narrow(TinySpec());
  SweepEngine::RunOptions ro;
  ro.only = std::vector<std::size_t>{1, 3};
  const std::vector<CellResult> some = narrow.Run(ro);
  ASSERT_EQ(all.size(), 4u);
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(StripWall(CellResultToJson(some[0])),
            StripWall(CellResultToJson(all[1])));
  EXPECT_EQ(StripWall(CellResultToJson(some[1])),
            StripWall(CellResultToJson(all[3])));
}

}  // namespace
}  // namespace drtp::runner
