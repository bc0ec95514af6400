// Crash-durability tests for the drtpd service layer: the drtp.wal/1
// write-ahead log (framing, truncate-and-verify recovery, torn-tail chop
// at every byte offset with and without a zero-filled extent behind it,
// trim to the records on clean close), drtp.snap/1 snapshots (round
// trip, digest and config refusals, RNG-bearing scheme state), and
// Engine::Recover — the contract that a recovered engine's
// NetworkStateDigest is byte-identical to an uninterrupted run's, with
// the auditor clean on the result.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/error.h"
#include "common/json.h"
#include "common/json_value.h"
#include "fault/auditor.h"
#include "net/generators.h"
#include "net/topology.h"
#include "sim/scenario.h"
#include "svc/engine.h"
#include "svc/rpc.h"
#include "svc/snapshot.h"
#include "svc/wal.h"
#include "scratch_dir.h"

namespace drtp {
namespace {

using svc::DecodedRequest;
using svc::DecodeRequest;
using svc::Engine;
using svc::EngineOptions;
using svc::RecoverReport;
using svc::Snapshot;
using svc::Wal;
using svc::WalRecovery;

std::string AdmitPayload(std::int64_t id, ConnId conn, NodeId src, NodeId dst,
                         Bandwidth bw) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("admit");
  w.Key("params").BeginObject();
  w.Key("conn").Int(conn);
  w.Key("src").Int(src);
  w.Key("dst").Int(dst);
  w.Key("bw_kbps").Int(bw);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string ReleasePayload(std::int64_t id, ConnId conn) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String("release");
  w.Key("params").BeginObject();
  w.Key("conn").Int(conn);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string LinkPayload(std::int64_t id, const char* method, LinkId link) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(svc::kRpcSchema);
  w.Key("id").Int(id);
  w.Key("method").String(method);
  w.Key("params").BeginObject();
  w.Key("link").Int(link);
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// A deterministic mixed workload (admits, releases, a failure/repair
/// pair) in which every request is effective — each one advances the
/// virtual clock and therefore lands in the WAL.
std::vector<std::string> MixedWorkload(int nodes) {
  std::vector<std::string> payloads;
  int id = 0;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back(AdmitPayload(id++, i, (3 * i) % nodes,
                                    (3 * i + 7) % nodes, Mbps(1)));
  }
  payloads.push_back(LinkPayload(id++, "fail-link", 2));
  for (int i = 0; i < 6; ++i) {
    payloads.push_back(ReleasePayload(id++, i));
  }
  payloads.push_back(LinkPayload(id++, "repair-link", 2));
  return payloads;
}

/// Executes `payloads` in batches of `batch`, returning the digest after
/// every batch (index k = digest once k batches committed).
std::vector<std::uint64_t> RunBatches(Engine& engine,
                                      const std::vector<std::string>& payloads,
                                      std::size_t batch) {
  std::vector<std::uint64_t> digests;
  std::vector<DecodedRequest> decoded;
  for (std::size_t i = 0; i < payloads.size();) {
    decoded.clear();
    for (std::size_t j = 0; j < batch && i < payloads.size(); ++j, ++i) {
      decoded.push_back(DecodeRequest(payloads[i]));
    }
    const auto out = engine.ExecuteBatch(decoded);
    EXPECT_EQ(out.size(), decoded.size());
    digests.push_back(engine.StateDigest());
  }
  return digests;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `n` admit events at virtual times first, first+1, ... (a batch
/// payload only; nothing executes them).
std::vector<sim::ScenarioEvent> AdmitEvents(int n, int first) {
  std::vector<sim::ScenarioEvent> events(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim::ScenarioEvent& e = events[static_cast<std::size_t>(i)];
    e.type = sim::ScenarioEvent::Type::kRequest;
    e.time = first + i;
    e.conn = first + i;
    e.src = i % 20;
    e.dst = (i + 7) % 20;
    e.bw = Mbps(1);
  }
  return events;
}

class DurabilityTest : public ::testing::Test {
 protected:
  DurabilityTest()
      : topo_(net::MakeWaxman(
            net::WaxmanConfig{.nodes = 20, .avg_degree = 4.0, .seed = 3})) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = (test::ProcessScratchDir() / info->name()).string();
    wal_path_ = base_ + ".wal";
    snap_path_ = base_ + ".snap";
    std::remove(wal_path_.c_str());
    std::remove(snap_path_.c_str());
  }

  EngineOptions Options() const {
    EngineOptions eo;
    eo.snapshot_path = snap_path_;
    return eo;
  }

  std::unique_ptr<Wal> OpenWal(const Engine& engine) {
    std::string error;
    auto wal = Wal::Open(wal_path_, engine.ConfigDigest(), &error);
    EXPECT_NE(wal, nullptr) << error;
    return wal;
  }

  net::Topology topo_;
  std::string base_;
  std::string wal_path_;
  std::string snap_path_;
};

// ---- WAL record layer -------------------------------------------------

TEST(WalPayloadTest, RoundTripsAllEventKinds) {
  std::vector<sim::ScenarioEvent> events(4);
  events[0].type = sim::ScenarioEvent::Type::kRequest;
  events[0].time = 1.0;
  events[0].conn = 7;
  events[0].src = 2;
  events[0].dst = 9;
  events[0].bw = Mbps(3);
  events[1].type = sim::ScenarioEvent::Type::kRelease;
  events[1].time = 2.0;
  events[1].conn = 7;
  events[2].type = sim::ScenarioEvent::Type::kLinkFail;
  events[2].time = 3.0;
  events[2].link = 11;
  events[3].type = sim::ScenarioEvent::Type::kLinkRepair;
  events[3].time = 4.0;
  events[3].link = 11;

  const std::string payload = svc::RenderWalBatchPayload(events);
  const std::vector<sim::ScenarioEvent> back =
      svc::ParseWalBatchPayload(payload);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].type, events[i].type) << i;
    EXPECT_EQ(back[i].time, events[i].time) << i;
    EXPECT_EQ(back[i].conn, events[i].conn) << i;
    EXPECT_EQ(back[i].src, events[i].src) << i;
    EXPECT_EQ(back[i].dst, events[i].dst) << i;
    EXPECT_EQ(back[i].bw, events[i].bw) << i;
    EXPECT_EQ(back[i].link, events[i].link) << i;
  }
}

TEST_F(DurabilityTest, MissingWalRecoversEmpty) {
  const WalRecovery rec = svc::RecoverWal(wal_path_, 0xabcd);
  EXPECT_FALSE(rec.existed);
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_EQ(rec.truncated_bytes, 0u);
  EXPECT_TRUE(rec.batches.empty());
}

TEST_F(DurabilityTest, OpenWritesHeaderRecoverAcceptsIt) {
  Engine engine(topo_, Options());
  auto wal = OpenWal(engine);
  const std::uint64_t header_end = wal->bytes();
  EXPECT_GT(header_end, 0u);
  wal.reset();

  const WalRecovery rec = svc::RecoverWal(wal_path_, engine.ConfigDigest());
  EXPECT_TRUE(rec.existed);
  EXPECT_EQ(rec.valid_bytes, header_end);
  EXPECT_EQ(rec.header_end, header_end);
  EXPECT_EQ(rec.truncated_bytes, 0u);
  EXPECT_TRUE(rec.batches.empty());
}

TEST_F(DurabilityTest, ForeignConfigWalRefused) {
  Engine engine(topo_, Options());
  OpenWal(engine).reset();
  EXPECT_THROW(svc::RecoverWal(wal_path_, engine.ConfigDigest() + 1),
               ParseError);
}

TEST_F(DurabilityTest, TornHeaderTruncatesToEmptyLog) {
  // A file that dies inside its very first record recovers to an empty
  // log (nothing was ever committed), not an error.
  {
    const char torn[] = {0, 0, 1};
    std::ofstream out(wal_path_, std::ios::binary);
    out.write(torn, sizeof torn);
  }
  const WalRecovery rec = svc::RecoverWal(wal_path_, 0x1234);
  EXPECT_TRUE(rec.existed);
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_EQ(rec.truncated_bytes, 3u);
  EXPECT_TRUE(rec.batches.empty());
}

// ---- WAL-only recovery ------------------------------------------------

TEST_F(DurabilityTest, WalReplayReachesIdenticalDigest) {
  EngineOptions eo = Options();
  eo.snapshot_path.clear();  // WAL only
  Engine live(topo_, eo);
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 3);
  const std::uint64_t want = live.StateDigest();
  const std::int64_t wal_batches = live.stats().wal_batches;
  wal.reset();

  Engine recovered(topo_, eo);
  const RecoverReport rep = recovered.Recover(wal_path_, "");
  EXPECT_FALSE(rep.from_snapshot);
  EXPECT_EQ(rep.wal_truncated_bytes, 0u);
  EXPECT_EQ(rep.batches_replayed, wal_batches);
  EXPECT_EQ(recovered.StateDigest(), want);
  EXPECT_EQ(recovered.virtual_now(), live.virtual_now());
  EXPECT_EQ(recovered.stats().admitted, live.stats().admitted);
  EXPECT_EQ(recovered.stats().blocked, live.stats().blocked);
  EXPECT_EQ(recovered.stats().released, live.stats().released);
  EXPECT_EQ(recovered.stats().link_fails, live.stats().link_fails);
  EXPECT_EQ(recovered.stats().link_repairs, live.stats().link_repairs);
  EXPECT_EQ(recovered.stats().wal_batches, wal_batches);
}

TEST_F(DurabilityTest, TornTailChoppedAtEveryByteRecovers) {
  // The checkpoint_test chop discipline, applied to the WAL: for every
  // prefix length the recovered engine must land exactly on the digest
  // the live engine had after the batches that survive the chop —
  // recovery never invents, loses, or reorders committed state.
  EngineOptions eo = Options();
  eo.snapshot_path.clear();
  Engine live(topo_, eo);
  auto wal = OpenWal(live);
  const std::uint64_t header_end = wal->bytes();
  live.AttachWal(wal.get());
  const std::uint64_t fresh_digest = live.StateDigest();
  const std::vector<std::uint64_t> per_batch =
      RunBatches(live, MixedWorkload(topo_.num_nodes()), 4);
  wal.reset();

  std::string bytes;
  {
    std::ifstream in(wal_path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    bytes = os.str();
  }
  ASSERT_GT(bytes.size(), header_end);

  const std::string chopped = base_ + ".chop";
  for (std::size_t cut = header_end;
       cut < bytes.size(); ++cut) {
    {
      std::ofstream out(chopped, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    Engine recovered(topo_, eo);
    RecoverReport rep;
    ASSERT_NO_THROW(rep = recovered.Recover(chopped, ""))
        << "chop at byte " << cut;
    const std::size_t k = static_cast<std::size_t>(rep.batches_replayed);
    ASSERT_LE(k, per_batch.size()) << "chop at byte " << cut;
    const std::uint64_t want = k == 0 ? fresh_digest : per_batch[k - 1];
    EXPECT_EQ(recovered.StateDigest(), want) << "chop at byte " << cut;
    EXPECT_EQ(rep.wal_truncated_bytes, cut - rep.wal_valid_bytes)
        << "chop at byte " << cut;
  }
  std::remove(chopped.c_str());
}

TEST_F(DurabilityTest, TornTailInZeroExtentChoppedAtEveryByteRecovers) {
  // The chop above, with every prefix followed by zeros up to past the
  // original end: what a crash leaves when the record being written
  // lands in a zero-filled extent. Recovery must stop at the same
  // boundary and drop the record's remains and the zeros together.
  EngineOptions eo = Options();
  eo.snapshot_path.clear();
  Engine live(topo_, eo);
  auto wal = OpenWal(live);
  const std::uint64_t header_end = wal->bytes();
  live.AttachWal(wal.get());
  const std::uint64_t fresh_digest = live.StateDigest();
  const std::vector<std::uint64_t> per_batch =
      RunBatches(live, MixedWorkload(topo_.num_nodes()), 4);
  wal.reset();

  const std::string bytes = ReadBytes(wal_path_);
  ASSERT_GT(bytes.size(), header_end);
  const std::size_t padded_size = bytes.size() + 64;
  const std::string chopped = base_ + ".chop";
  for (std::size_t cut = header_end; cut <= bytes.size(); ++cut) {
    std::string padded = bytes.substr(0, cut);
    padded.resize(padded_size, '\0');
    WriteBytes(chopped, padded);
    Engine recovered(topo_, eo);
    RecoverReport rep;
    ASSERT_NO_THROW(rep = recovered.Recover(chopped, ""))
        << "chop at byte " << cut;
    const std::size_t k = static_cast<std::size_t>(rep.batches_replayed);
    ASSERT_LE(k, per_batch.size()) << "chop at byte " << cut;
    const std::uint64_t want = k == 0 ? fresh_digest : per_batch[k - 1];
    EXPECT_EQ(recovered.StateDigest(), want) << "chop at byte " << cut;
    EXPECT_LE(rep.wal_valid_bytes, cut) << "chop at byte " << cut;
    EXPECT_EQ(rep.wal_truncated_bytes, padded_size - rep.wal_valid_bytes)
        << "chop at byte " << cut;
    EXPECT_EQ(std::filesystem::file_size(chopped), rep.wal_valid_bytes)
        << "chop at byte " << cut;
  }
  std::remove(chopped.c_str());
}

TEST_F(DurabilityTest, LogCopiedWhileOpenRecoversAndAppendsAtItsEnd) {
  // A copy taken while the Wal is still open is what a crash leaves: the
  // records, then the unused rest of the zero-filled extent. It must
  // recover to the live digest with the verified prefix ending at the
  // last record, and a Wal reopened on it must append exactly there.
  EngineOptions eo = Options();
  eo.snapshot_path.clear();
  Engine live(topo_, eo);
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 3);
  const std::uint64_t logical_end = wal->bytes();
  const std::string copy = ReadBytes(wal_path_);
  ASSERT_GT(copy.size(), logical_end);
  EXPECT_EQ(copy.find_first_not_of('\0', logical_end), std::string::npos)
      << "the tail past the last record is not all zeros";
  const std::string crashed = base_ + ".crashed";
  WriteBytes(crashed, copy);

  Engine recovered(topo_, eo);
  const RecoverReport rep = recovered.Recover(crashed, "");
  EXPECT_EQ(rep.wal_valid_bytes, logical_end);
  EXPECT_EQ(rep.wal_truncated_bytes, copy.size() - logical_end);
  EXPECT_EQ(recovered.StateDigest(), live.StateDigest());

  std::string error;
  auto reopened = Wal::Open(crashed, recovered.ConfigDigest(), &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->bytes(), logical_end);
  recovered.AttachWal(reopened.get());
  const std::vector<std::string> more = {
      AdmitPayload(900, 900, 1, 5, Mbps(1))};
  RunBatches(live, more, 1);
  RunBatches(recovered, more, 1);
  EXPECT_EQ(recovered.StateDigest(), live.StateDigest());
  reopened.reset();
  wal.reset();

  // Both logs now hold the same records, byte for byte, and the first
  // record written after the reopen starts at the old logical end.
  EXPECT_EQ(ReadBytes(crashed), ReadBytes(wal_path_));
  const WalRecovery rec = svc::RecoverWal(crashed, live.ConfigDigest());
  ASSERT_GE(rec.batches.size(), 2u);
  EXPECT_EQ(rec.batches[rec.batches.size() - 2].end_offset, logical_end);
  std::remove(crashed.c_str());
}

TEST_F(DurabilityTest, CleanlyClosedLogIsExactlyItsRecords) {
  // While open the file runs past the records into zero-filled extents;
  // a clean close trims it, leaving the header record followed by the
  // batch records and nothing else. The batches cross several extent
  // boundaries, and one record is larger than the first extent.
  const std::uint64_t config = 0x5eed;
  std::string error;
  auto wal = Wal::Open(wal_path_, config, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(std::filesystem::file_size(wal_path_), svc::kWalFirstExtent);

  JsonWriter header;
  header.BeginObject();
  header.Key("schema").String(svc::kWalSchema);
  header.Key("config").String(DigestHex(config));
  header.EndObject();
  std::string want = svc::EncodeWalRecord(header.str());
  EXPECT_EQ(wal->bytes(), want.size());

  int first = 1;
  for (const int n : {1, 3000, 9000, 2, 5000}) {
    const std::vector<sim::ScenarioEvent> events = AdmitEvents(n, first);
    first += n;
    ASSERT_TRUE(wal->AppendBatch(events, &error)) << error;
    want += svc::EncodeWalRecord(svc::RenderWalBatchPayload(events));
    EXPECT_EQ(wal->bytes(), want.size());
    EXPECT_GT(std::filesystem::file_size(wal_path_), want.size());
  }
  EXPECT_GT(want.size(), 2 * svc::kWalFirstExtent);
  wal.reset();
  EXPECT_EQ(ReadBytes(wal_path_), want);
}

// ---- snapshots --------------------------------------------------------

TEST_F(DurabilityTest, SnapshotOnlyRecoveryRestoresEverything) {
  Engine live(topo_, Options());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 5);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;

  Engine recovered(topo_, Options());
  const RecoverReport rep = recovered.Recover("", snap_path_);
  EXPECT_TRUE(rep.from_snapshot);
  EXPECT_EQ(rep.batches_replayed, 0);
  EXPECT_EQ(recovered.StateDigest(), live.StateDigest());
  EXPECT_EQ(recovered.virtual_now(), live.virtual_now());
  // The snapshots counter includes the file the engine was restored from.
  EXPECT_EQ(recovered.stats().snapshots, 1);
  EXPECT_EQ(recovered.stats().admitted, live.stats().admitted);
  EXPECT_EQ(recovered.network().ActiveCount(), live.network().ActiveCount());
}

TEST_F(DurabilityTest, SnapshotPlusWalSuffixReplaysOnlyTheSuffix) {
  Engine live(topo_, Options());
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  const std::vector<std::string> payloads = MixedWorkload(topo_.num_nodes());
  const std::vector<std::string> first(payloads.begin(),
                                      payloads.begin() + 12);
  const std::vector<std::string> rest(payloads.begin() + 12, payloads.end());
  RunBatches(live, first, 3);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;  // binds to wal offset
  const std::vector<std::uint64_t> suffix_digests = RunBatches(live, rest, 3);
  wal.reset();

  Engine recovered(topo_, Options());
  const RecoverReport rep = recovered.Recover(wal_path_, snap_path_);
  EXPECT_TRUE(rep.from_snapshot);
  EXPECT_EQ(rep.batches_replayed,
            static_cast<std::int64_t>(suffix_digests.size()));
  EXPECT_EQ(recovered.StateDigest(), live.StateDigest());
  EXPECT_EQ(recovered.stats().wal_batches, live.stats().wal_batches);
}

TEST_F(DurabilityTest, RandomBackupRngStateSurvivesRecovery) {
  // RandomBackup is the one scheme carrying history (its RNG stream).
  // After recovery, the next admissions must draw the identical
  // continuation — byte-identical responses, not just a matching digest.
  EngineOptions eo = Options();
  eo.scheme = "RandomBackup";
  eo.seed = 42;
  Engine live(topo_, eo);
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 3);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;
  live.AttachWal(nullptr);  // live keeps executing below, without the log
  wal.reset();

  Engine recovered(topo_, eo);
  recovered.Recover(wal_path_, snap_path_);
  ASSERT_EQ(recovered.StateDigest(), live.StateDigest());
  for (int i = 0; i < 8; ++i) {
    const std::string payload =
        AdmitPayload(100 + i, 100 + i, (5 * i) % topo_.num_nodes(),
                     (5 * i + 3) % topo_.num_nodes(), Mbps(1));
    const DecodedRequest d = DecodeRequest(payload);
    const auto a = live.ExecuteBatch({&d, 1});
    const auto b = recovered.ExecuteBatch({&d, 1});
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0], b[0]) << "post-recovery admission " << i
                          << " diverged: the RNG stream was not restored";
  }
  EXPECT_EQ(recovered.StateDigest(), live.StateDigest());
}

TEST_F(DurabilityTest, SnapshotConfigMismatchRefused) {
  Engine live(topo_, Options());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 5);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;

  EngineOptions other = Options();
  other.num_backups = 2;  // different config digest
  Engine recovered(topo_, other);
  EXPECT_THROW(recovered.Recover("", snap_path_), ParseError);
}

TEST_F(DurabilityTest, TamperedSnapshotRefused) {
  Engine live(topo_, Options());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 5);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;

  std::string content;
  {
    std::ifstream in(snap_path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    content = os.str();
  }
  const std::size_t at = content.find("\"conns\"");
  ASSERT_NE(at, std::string::npos);
  content[at + 1] ^= 0x01;  // flip one body byte; digest line is now stale
  std::ofstream(snap_path_, std::ios::binary | std::ios::trunc) << content;
  EXPECT_THROW(svc::LoadSnapshotFile(snap_path_), ParseError);
  Engine recovered(topo_, Options());
  EXPECT_THROW(recovered.Recover("", snap_path_), ParseError);
}

TEST_F(DurabilityTest, SnapshotOffWalBoundaryRefused) {
  // A snapshot claiming an offset that is not a record boundary of the
  // recovered WAL does not belong to it — refuse instead of replaying
  // from the middle of a record.
  Engine live(topo_, Options());
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 3);
  wal.reset();

  Engine fresh(topo_, Options());
  const std::string body = svc::RenderSnapshotBody(
      fresh.network(), fresh.stats(), 0, fresh.ConfigDigest(),
      /*wal_offset=*/7, "D-LSR", "");
  std::string error;
  ASSERT_TRUE(svc::WriteSnapshotFile(snap_path_, body, &error)) << error;

  Engine recovered(topo_, Options());
  EXPECT_THROW(recovered.Recover(wal_path_, snap_path_), ParseError);
}

TEST_F(DurabilityTest, RecoveredStateAuditsClean) {
  Engine live(topo_, Options());
  auto wal = OpenWal(live);
  live.AttachWal(wal.get());
  RunBatches(live, MixedWorkload(topo_.num_nodes()), 3);
  std::string error;
  ASSERT_TRUE(live.WriteSnapshot(&error)) << error;
  wal.reset();

  Engine recovered(topo_, Options());
  recovered.Recover(wal_path_, snap_path_);
  fault::Auditor auditor;
  auditor.Check(recovered.network(), recovered.virtual_now(),
                "post_recovery", nullptr);
  EXPECT_EQ(auditor.checks(), 1);
  EXPECT_TRUE(auditor.ok()) << auditor.violation_count()
                            << " violations on the recovered state";
}

TEST_F(DurabilityTest, FreshRecoverIsANoOp) {
  Engine recovered(topo_, Options());
  const RecoverReport rep = recovered.Recover(wal_path_, snap_path_);
  EXPECT_FALSE(rep.from_snapshot);
  EXPECT_EQ(rep.batches_replayed, 0);
  EXPECT_EQ(rep.wal_valid_bytes, 0u);
  Engine fresh(topo_, Options());
  EXPECT_EQ(recovered.StateDigest(), fresh.StateDigest());
}

}  // namespace
}  // namespace drtp
