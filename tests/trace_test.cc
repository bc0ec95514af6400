// Tests for the trace subsystem and for invariants under combined
// connection churn and link failures/repairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json_value.h"
#include "common/rng.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "drtp/plsr.h"
#include "net/generators.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/paper.h"

namespace drtp::sim {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;

Scenario SmallScenario(const net::Topology& topo, int failures,
                       std::uint64_t seed) {
  TrafficConfig tc = MakePaperTraffic(TrafficPattern::kUniform, 0.4, seed);
  tc.duration = 1200.0;
  tc.lifetime_min = 200.0;
  tc.lifetime_max = 500.0;
  Scenario sc = Scenario::Generate(topo, tc);
  if (failures > 0) {
    InjectLinkFailures(sc, topo, failures, 400.0, 1100.0, 150.0, seed + 5);
  }
  return sc;
}

TEST(Trace, TextSinkRecordsEveryEventKind) {
  const net::Topology topo = MakePaperTopology(3.0, 30);
  const Scenario sc = SmallScenario(topo, 6, 31);
  std::ostringstream os;
  obs::TextTraceSink sink(os);
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  ec.trace = &sink;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);
  sink.Finish();

  const std::string text = os.str();
  EXPECT_GT(sink.lines_written(), 0);
  EXPECT_NE(text.find(" + conn "), std::string::npos);
  EXPECT_NE(text.find(" - conn "), std::string::npos);
  EXPECT_NE(text.find(" ! link "), std::string::npos);
  EXPECT_NE(text.find(" ~ link "), std::string::npos);
  EXPECT_NE(text.find(" primary "), std::string::npos);
  EXPECT_NE(text.find(" backup "), std::string::npos);
  (void)m;
}

/// One record of every kind, with the values of the example lines in
/// obs/trace.h's TextTraceSink comment.
std::vector<TraceEvent> OneOfEachKind() {
  static const std::array<NodeId, 3> kPrimary = {3, 7, 22};
  static const std::array<NodeId, 4> kBackup = {3, 9, 14, 22};
  static const std::array<NodeId, 3> kNewBackup = {3, 5, 22};
  std::vector<TraceEvent> events;
  const auto add = [&events](Time t, TraceEventKind kind) -> TraceEvent& {
    TraceEvent& e = events.emplace_back();
    e.t = t;
    e.kind = kind;
    e.scheme = "D-LSR";
    e.cell = 4;
    return e;
  };
  TraceEvent& request = add(0.3127, TraceEventKind::kRequest);
  request.conn = 12;
  request.src = 3;
  request.dst = 22;
  request.bw = 1000;
  TraceEvent& admit = add(0.3127, TraceEventKind::kAdmit);
  admit.conn = 12;
  admit.src = 3;
  admit.dst = 22;
  admit.bw = 1000;
  admit.primary = kPrimary;
  admit.backup = kBackup;
  add(0.4411, TraceEventKind::kRelease).conn = 9;
  TraceEvent& block = add(0.5, TraceEventKind::kBlock);
  block.conn = 17;
  block.src = 4;
  block.dst = 31;
  TraceEvent& link_fail = add(9.1, TraceEventKind::kLinkFail);
  link_fail.link = 45;
  link_fail.recovered = 3;
  link_fail.dropped = 1;
  link_fail.broken = 2;
  TraceEvent& failover = add(9.1, TraceEventKind::kFailover);
  failover.conn = 12;
  failover.primary = kBackup;
  add(9.1, TraceEventKind::kDrop).conn = 7;
  add(9.1, TraceEventKind::kBackupBreak).conn = 4;
  TraceEvent& reestablish = add(9.1, TraceEventKind::kReestablish);
  reestablish.conn = 12;
  reestablish.backup = kNewBackup;
  add(9.5, TraceEventKind::kLinkRepair).link = 45;
  TraceEvent& node_fail = add(9.1, TraceEventKind::kNodeFail);
  node_fail.node = 6;
  node_fail.recovered = 2;
  node_fail.dropped = 1;
  node_fail.broken = 0;
  add(9.5, TraceEventKind::kNodeRepair).node = 6;
  TraceEvent& srlg_fail = add(9.1, TraceEventKind::kSrlgFail);
  srlg_fail.srlg = 2;
  srlg_fail.recovered = 1;
  srlg_fail.dropped = 0;
  srlg_fail.broken = 3;
  add(9.5, TraceEventKind::kSrlgRepair).srlg = 2;
  TraceEvent& degrade = add(9.1, TraceEventKind::kDegrade);
  degrade.conn = 12;
  degrade.retries_left = 6;
  return events;
}

TEST(Trace, TextSinkRendersDocumentedLines) {
  std::ostringstream os;
  obs::TextTraceSink sink(os);
  for (const TraceEvent& e : OneOfEachKind()) sink.Write(e);
  sink.Finish();
  EXPECT_EQ(os.str(),
            "0.3127 + conn 12 primary 3-7-22 backup 3-9-14-22\n"
            "0.4411 - conn 9\n"
            "0.5 x conn 17 (4 -> 31)\n"
            "9.1 ! link 45 recovered 3 dropped 1 broken 2\n"
            "9.1 > conn 12 promoted 3-9-14-22\n"
            "9.1 # conn 7 dropped\n"
            "9.1 b conn 4 backup broken\n"
            "9.1 = conn 12 backup 3-5-22\n"
            "9.5 ~ link 45 repaired\n"
            "9.1 N node 6 recovered 2 dropped 1 broken 0\n"
            "9.5 n node 6 repaired\n"
            "9.1 S srlg 2 recovered 1 dropped 0 broken 3\n"
            "9.5 s srlg 2 repaired\n"
            "9.1 d conn 12 degraded retries-left 6\n");
  // 15 records in, 14 lines out: the request renders nothing.
  EXPECT_EQ(sink.lines_written(), 14);
}

/// A stream buffer that accepts nothing, like a full disk.
class FullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override {
    return 0;
  }
};

TEST(Trace, FinishFailsWhenOutputIsLost) {
  const auto lost = [](auto make_sink) {
    FullBuf full;
    std::ostream os(&full);
    auto sink = make_sink(os);
    for (const TraceEvent& e : OneOfEachKind()) sink.Write(e);
    EXPECT_THROW(sink.Finish(), CheckError);
  };
  lost([](std::ostream& os) { return obs::TextTraceSink(os); });
  lost([](std::ostream& os) { return obs::JsonlTraceSink(os); });
  lost([](std::ostream& os) { return obs::ChromeTraceSink(os); });
}

TEST(Trace, CountsMatchMetrics) {
  const net::Topology topo = MakePaperTopology(3.0, 32);
  const Scenario sc = SmallScenario(topo, 4, 33);
  // A local counter by kind.
  struct KindCounter : obs::TraceSink {
    void Write(const TraceEvent& e) override { ++n[e.kind]; }
    std::map<TraceEventKind, std::int64_t> n;
  } counts;
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  ec.trace = &counts;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);

  EXPECT_EQ(counts.n[TraceEventKind::kRequest], m.requests);
  EXPECT_EQ(counts.n[TraceEventKind::kAdmit], m.admitted);
  EXPECT_EQ(counts.n[TraceEventKind::kBlock], m.blocked);
  EXPECT_EQ(counts.n[TraceEventKind::kLinkFail], m.failures_enacted);
  // Every admitted connection either released normally or was dropped by
  // a failure.
  EXPECT_EQ(counts.n[TraceEventKind::kRelease] + m.failover_dropped,
            m.admitted);
  EXPECT_LE(counts.n[TraceEventKind::kLinkRepair],
            counts.n[TraceEventKind::kLinkFail]);
}

TEST(Trace, RecordsCarrySchemeAndCell) {
  const net::Topology topo = MakePaperTopology(3.0, 36);
  const Scenario sc = SmallScenario(topo, 6, 37);
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  ec.trace = &sink;
  ec.trace_cell = 5;
  core::Plsr plsr;
  const RunMetrics m = RunScenario(topo, sc, plsr, ec);
  sink.Finish();

  std::istringstream lines(os.str());
  std::string line;
  std::int64_t n = 0;
  std::int64_t link_fails = 0;
  std::int64_t recovered = 0;
  std::int64_t dropped = 0;
  std::int64_t broken = 0;
  while (std::getline(lines, line)) {
    ++n;
    const JsonValue v = ParseJson(line);
    for (const char* key : {"schema", "ev", "scheme", "cell"}) {
      ASSERT_NE(v.Find(key), nullptr) << key << " missing: " << line;
    }
    EXPECT_EQ(v.Find("schema")->AsString(), "drtp.trace/1") << line;
    EXPECT_EQ(v.Find("scheme")->AsString(), "P-LSR") << line;
    EXPECT_EQ(v.Find("cell")->AsInt64(), 5) << line;
    if (v.Find("ev")->AsString() != "link_fail") continue;
    ++link_fails;
    for (const char* key : {"link", "recovered", "dropped", "broken"}) {
      ASSERT_NE(v.Find(key), nullptr) << key << " missing: " << line;
    }
    recovered += v.Find("recovered")->AsInt64();
    dropped += v.Find("dropped")->AsInt64();
    broken += v.Find("broken")->AsInt64();
  }
  EXPECT_EQ(n, sink.lines_written());
  EXPECT_GT(n, m.requests);
  // The aggregates add up to the run's failure metrics.
  EXPECT_GT(link_fails, 0);
  EXPECT_EQ(link_fails, m.failures_enacted);
  EXPECT_EQ(recovered, m.failover_recovered);
  EXPECT_EQ(dropped, m.failover_dropped);
  EXPECT_EQ(broken, m.backups_broken);
}

TEST(Trace, DisabledByDefault) {
  const net::Topology topo = MakePaperTopology(3.0, 34);
  const Scenario sc = SmallScenario(topo, 0, 35);
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);  // must not crash
  EXPECT_GT(m.admitted, 0);
}

/// Property: random interleaving of churn, failures and repairs keeps
/// every DrtpNetwork invariant, and the network drains cleanly.
class ChurnWithFailures : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnWithFailures, InvariantsHold) {
  const std::uint64_t seed = GetParam();
  const net::Topology topo = net::MakeWaxman(net::WaxmanConfig{
      .nodes = 24, .avg_degree = 3.5, .link_capacity = Mbps(6),
      .seed = seed});
  core::DrtpNetwork net(topo);
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  core::Dlsr dlsr;
  Rng rng(seed * 7 + 2);
  std::vector<ConnId> active;
  ConnId next_id = 0;
  int failures = 0;

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op <= 4) {  // admit
      const NodeId src = static_cast<NodeId>(rng.Index(24));
      NodeId dst = static_cast<NodeId>(rng.Index(24));
      if (src == dst) continue;
      net.PublishTo(db, step);
      const auto sel = dlsr.SelectRoutes(net, db, src, dst, Mbps(1));
      if (sel.primary &&
          net.EstablishConnection(next_id, *sel.primary, Mbps(1), step)) {
        if (sel.backup) net.RegisterBackup(next_id, *sel.backup);
        active.push_back(next_id);
        ++next_id;
      }
    } else if (op <= 6 && !active.empty()) {  // release
      const auto idx = rng.Index(active.size());
      net.ReleaseConnection(active[idx]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 7 && failures < 6) {  // fail a random up link
      std::vector<LinkId> up;
      for (LinkId l = 0; l < topo.num_links(); ++l) {
        if (net.IsLinkUp(l)) up.push_back(l);
      }
      const LinkId victim = up[rng.Index(up.size())];
      const auto report =
          core::ApplyLinkFailure(net, victim, step, &dlsr, &db);
      ++failures;
      // Dropped connections vanish from our active list too.
      for (ConnId id : report.dropped) {
        active.erase(std::remove(active.begin(), active.end(), id),
                     active.end());
      }
    } else if (op >= 8) {  // repair a random down link
      const std::vector<LinkId> down = net.down_links();
      if (!down.empty()) {
        net.SetLinkUp(down[rng.Index(down.size())]);
        --failures;
      }
    }
    if (step % 25 == 0) net.CheckConsistency();
  }
  net.CheckConsistency();
  for (ConnId id : active) net.ReleaseConnection(id);
  EXPECT_EQ(net.ActiveCount(), 0);
  EXPECT_EQ(net.ledger().TotalPrime(), 0);
  EXPECT_EQ(net.ledger().TotalSpare(), 0);
  net.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnWithFailures,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace drtp::sim
