// Tests for the fault subsystem: campaign generation/compilation (schema
// v2), the runtime invariant auditor (clean runs stay clean, corrupted
// state is caught), and graceful degradation accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.h"
#include "drtp/dlsr.h"
#include "drtp/messages.h"
#include "drtp/network.h"
#include "fault/auditor.h"
#include "fault/plan.h"
#include "net/generators.h"
#include "proto/engine.h"
#include "routing/path.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/scenario.h"

namespace drtp::fault {
namespace {

net::Topology SrlgTopology(std::uint64_t seed = 7) {
  return net::MakeWaxman({.nodes = 24,
                          .avg_degree = 3.5,
                          .link_capacity = Mbps(30),
                          .srlg_groups = 6,
                          .seed = seed});
}

CampaignConfig DemoCampaign() {
  CampaignConfig cc;
  cc.link_failures = 2;
  cc.node_failures = 2;
  cc.srlg_failures = 1;
  cc.bursts = 1;
  cc.burst_size = 3;
  cc.t_begin = 200.0;
  cc.t_end = 500.0;
  cc.mttr = 60.0;
  cc.seed = 11;
  return cc;
}

bool SameEvent(const sim::ScenarioEvent& a, const sim::ScenarioEvent& b) {
  return a.type == b.type && a.time == b.time && a.conn == b.conn &&
         a.src == b.src && a.dst == b.dst && a.bw == b.bw &&
         a.link == b.link && a.node == b.node && a.srlg == b.srlg;
}

TEST(Campaign, DeterministicForSeed) {
  const net::Topology topo = SrlgTopology();
  const FaultPlan a = MakeCampaign(topo, DemoCampaign());
  const FaultPlan b = MakeCampaign(topo, DemoCampaign());
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].at, b.faults[i].at);
    EXPECT_EQ(a.faults[i].link, b.faults[i].link);
    EXPECT_EQ(a.faults[i].node, b.faults[i].node);
    EXPECT_EQ(a.faults[i].srlg, b.faults[i].srlg);
    EXPECT_EQ(a.faults[i].burst, b.faults[i].burst);
  }
  CampaignConfig other = DemoCampaign();
  other.seed = 12;
  const FaultPlan c = MakeCampaign(topo, other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    if (a.faults[i].at != c.faults[i].at) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Campaign, SrlgFaultsRequireTaggedTopology) {
  const net::Topology untagged =
      net::MakeWaxman({.nodes = 24, .avg_degree = 3.5, .seed = 7});
  CampaignConfig cc;
  cc.srlg_failures = 1;
  EXPECT_THROW(MakeCampaign(untagged, cc), CheckError);
}

TEST(Campaign, CompilesFailRepairPairsInTimeOrder) {
  const net::Topology topo = SrlgTopology();
  const CampaignConfig cc = DemoCampaign();
  const FaultPlan plan = MakeCampaign(topo, cc);
  sim::Scenario sc;
  sc.traffic.duration = 1000.0;
  plan.InjectInto(sc);
  // link: 2 pairs, node: 2 pairs, srlg: 1 pair, burst: burst_size pairs.
  const std::size_t expected =
      2 * (2 + 2 + 1 + static_cast<std::size_t>(cc.burst_size));
  ASSERT_EQ(sc.events.size(), expected);
  for (std::size_t i = 1; i < sc.events.size(); ++i) {
    EXPECT_LE(sc.events[i - 1].time, sc.events[i].time);
  }
  int v2 = 0;
  for (const sim::ScenarioEvent& e : sc.events) v2 += e.RequiresV2();
  EXPECT_EQ(v2, 2 * (2 + 1));  // node + srlg fail/repair pairs
}

TEST(Campaign, RoundTripsThroughScenarioV2) {
  const net::Topology topo = SrlgTopology();
  sim::TrafficConfig tc = sim::MakePaperTraffic(
      sim::TrafficPattern::kUniform, 0.3, /*seed=*/5);
  tc.duration = 600.0;
  sim::Scenario sc = sim::Scenario::Generate(topo, tc);
  MakeCampaign(topo, DemoCampaign()).InjectInto(sc);

  std::stringstream ss;
  sc.Save(ss);
  const sim::Scenario back = sim::Scenario::Load(ss);
  ASSERT_EQ(back.events.size(), sc.events.size());
  for (std::size_t i = 0; i < sc.events.size(); ++i) {
    EXPECT_TRUE(SameEvent(sc.events[i], back.events[i])) << "event " << i;
  }
}

// The acceptance demo: a seeded campaign mixing node, SRLG, burst and
// plain link faults replays end-to-end with the auditor checking every
// event — and finds nothing.
TEST(Auditor, CleanCampaignHasNoViolations) {
  const net::Topology topo = SrlgTopology();
  sim::TrafficConfig tc = sim::MakePaperTraffic(
      sim::TrafficPattern::kUniform, 0.4, /*seed=*/5);
  tc.duration = 600.0;
  sim::Scenario sc = sim::Scenario::Generate(topo, tc);
  CampaignConfig cc = DemoCampaign();
  cc.t_begin = 150.0;
  cc.t_end = 550.0;
  MakeCampaign(topo, cc).InjectInto(sc);

  std::ostringstream audit_os;
  AuditorOptions ao;
  ao.out = &audit_os;
  Auditor auditor(ao);
  sim::ExperimentConfig ec;
  ec.warmup = 150.0;
  ec.sample_interval = 20.0;
  ec.after_event = [&auditor](const core::DrtpNetwork& net, Time t,
                              std::string_view event,
                              const core::SwitchoverReport* report) {
    auditor.Check(net, t, event, report);
  };
  core::Dlsr scheme;
  const sim::RunMetrics m = sim::RunScenario(topo, sc, scheme, ec);

  EXPECT_GT(m.failures_enacted, 0);
  EXPECT_GT(auditor.checks(), 0);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().size()
                            << " violations, first: "
                            << (auditor.violations().empty()
                                    ? ""
                                    : auditor.violations()[0].invariant + ": " +
                                          auditor.violations()[0].detail);
  EXPECT_TRUE(audit_os.str().empty());
}

// Corrupted state must trip the auditor: a fabricated hop-by-hop backup
// registration (a phantom connection that exists in one manager's
// incremental state but not in the connection table) diverges the APLV
// and the spare target from the rebuilt ground truth.
TEST(Auditor, DetectsFabricatedBackupRegistration) {
  core::DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  const net::Topology& topo = net.topology();
  auto path = [&](std::vector<NodeId> nodes) {
    auto p = routing::Path::FromNodes(topo, nodes);
    DRTP_CHECK(p.has_value());
    return *p;
  };
  ASSERT_TRUE(net.EstablishConnection(1, path({0, 1, 2}), Mbps(1), 0.0));
  net.RegisterBackup(1, path({0, 3, 4, 5, 2}));

  Auditor clean;
  clean.Check(net, 0.0, "setup", nullptr);
  ASSERT_TRUE(clean.ok());

  // Forge a registration the connection table knows nothing about.
  const LinkId l34 = topo.FindLink(3, 4);
  core::BackupRegisterPacket forged;
  forged.conn_id = 999;
  forged.bw = Mbps(1);
  forged.primary_lset = path({6, 7, 8}).ToLinkSet();
  net.manager(topo.link(l34).src).RegisterBackupHop(l34, forged);

  std::ostringstream os;
  AuditorOptions ao;
  ao.out = &os;
  Auditor auditor(ao);
  auditor.Check(net, 1.0, "corruption", nullptr);
  EXPECT_FALSE(auditor.ok());
  bool aplv_or_spare = false;
  for (const AuditViolation& v : auditor.violations()) {
    if (v.invariant == "aplv.mismatch" || v.invariant == "spare.target_drift")
      aplv_or_spare = true;
  }
  EXPECT_TRUE(aplv_or_spare);
  EXPECT_NE(os.str().find("drtp.audit/1"), std::string::npos);
  EXPECT_NE(os.str().find("\"t\":1"), std::string::npos);
}

// A listed overbooked link whose pool meets its target is stale: releases
// reconcile only the links they touch and would never revisit it. Build
// one by freeing spare on a listed link behind the network's back, in a
// state that is otherwise consistent: a forged registration raises l34's
// target before a real backup overbooks it, and is then released through
// the manager alone.
TEST(Auditor, FlagsStaleOverbookedListing) {
  core::DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  const net::Topology& topo = net.topology();
  auto path = [&](std::vector<NodeId> nodes) {
    auto p = routing::Path::FromNodes(topo, nodes);
    DRTP_CHECK(p.has_value());
    return *p;
  };
  const LinkId l34 = topo.FindLink(3, 4);
  core::DrConnectionManager& owner = net.manager(topo.link(l34).src);
  core::BackupRegisterPacket forged;
  forged.conn_id = 999;
  forged.bw = Mbps(1);
  forged.primary_lset = path({0, 1}).ToLinkSet();
  owner.RegisterBackupHop(l34, forged);

  // Demand on link 0->1 is now 1 + 2 Mbps against 2 Mbps of capacity.
  ASSERT_TRUE(net.EstablishConnection(1, path({0, 1, 2}), Mbps(2), 0.0));
  net.RegisterBackup(1, path({0, 3, 4, 5, 2}));
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{l34});

  core::BackupReleasePacket release;
  release.conn_id = forged.conn_id;
  release.bw = forged.bw;
  release.primary_lset = forged.primary_lset;
  owner.ReleaseBackupHop(l34, release);
  ASSERT_EQ(net.ledger().spare(l34), owner.SpareTarget(l34));
  ASSERT_EQ(net.OverbookedLinks(), std::vector<LinkId>{l34});

  Auditor auditor;
  auditor.Check(net, 1.0, "corruption", nullptr);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant, "spare.overbooked_stale");
  EXPECT_EQ(auditor.violations()[0].link, l34);
  try {
    net.CheckConsistency();
    ADD_FAILURE() << "CheckConsistency accepted a stale overbooked listing";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("listed overbooked but meets target"),
              std::string::npos)
        << e.what();
  }
}

TEST(Auditor, StrideSkipsRoutineEventsButAlwaysAuditsFailures) {
  core::DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  AuditorOptions ao;
  ao.stride = 4;
  Auditor auditor(ao);
  for (int i = 0; i < 8; ++i) auditor.Check(net, i, "request", nullptr);
  EXPECT_EQ(auditor.checks(), 2);  // calls 0 and 4
  const core::SwitchoverReport report;
  auditor.Check(net, 9.0, "link_fail", &report);
  auditor.Check(net, 10.0, "final", nullptr);
  EXPECT_EQ(auditor.checks(), 4);  // forced regardless of stride
  EXPECT_TRUE(auditor.ok());
}

TEST(Auditor, RecordingCapStillCountsEverything) {
  core::DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  const net::Topology& topo = net.topology();
  auto path = [&](std::vector<NodeId> nodes) {
    auto p = routing::Path::FromNodes(topo, nodes);
    DRTP_CHECK(p.has_value());
    return *p;
  };
  // Forge registrations on several links so one audit yields a burst of
  // violations, then cap recording far below it.
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 3}, {3, 4}, {4, 5}, {5, 2}}) {
    const LinkId l = topo.FindLink(a, b);
    core::BackupRegisterPacket forged;
    forged.conn_id = 900 + l;
    forged.bw = Mbps(1);
    forged.primary_lset = path({6, 7, 8}).ToLinkSet();
    net.manager(topo.link(l).src).RegisterBackupHop(l, forged);
  }
  AuditorOptions ao;
  ao.max_recorded = 2;
  Auditor auditor(ao);
  auditor.Check(net, 0.0, "corruption", nullptr);
  EXPECT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations().size(), 2u);
  EXPECT_GT(auditor.violation_count(),
            static_cast<std::int64_t>(auditor.violations().size()));
}

TEST(Auditor, FlagsBackupCoveringEveryPrimaryLink) {
  core::DrtpNetwork net(net::MakeGrid(3, 3, Mbps(2)));
  const net::Topology& topo = net.topology();
  auto p = routing::Path::FromNodes(topo, std::vector<NodeId>{0, 1, 2});
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(net.EstablishConnection(1, *p, Mbps(1), 0.0));
  // Registering the primary as its own "backup" keeps every ledger and
  // index consistent — only the protection semantics are vacuous.
  net.RegisterBackup(1, *p);
  Auditor auditor;
  auditor.Check(net, 0.0, "corruption", nullptr);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations()[0].invariant, "conn.backup_shadows_primary");
  EXPECT_EQ(auditor.violations()[0].conn, 1);
}

// A connection on a 6-ring has exactly two link-disjoint routes. Failing
// one right after admission leaves the survivor as the promoted primary
// and NO disjoint backup: step 4 must refuse to register the primary's
// own path as "protection" (the scheme only shuns, never forbids, primary
// links), degrade the connection, and re-protect via the backoff retry
// loop once the repair restores the second route.
TEST(Degradation, ReprotectsAfterRepairAndNeverShadowsPrimary) {
  const net::Topology topo = net::MakeRing(6, Mbps(30));
  const LinkId l01 = topo.FindLink(0, 1);
  ASSERT_NE(l01, kInvalidLink);
  sim::Scenario sc;
  sc.traffic.duration = 300.0;
  using Ev = sim::ScenarioEvent;
  sc.events.push_back(Ev{.type = Ev::Type::kRequest, .time = 1.0, .conn = 1,
                         .src = 0, .dst = 3, .bw = Mbps(1)});
  sc.events.push_back(Ev{.type = Ev::Type::kLinkFail, .time = 100.0,
                         .link = l01});
  sc.events.push_back(Ev{.type = Ev::Type::kLinkRepair, .time = 115.0,
                         .link = l01});

  Auditor auditor;
  bool final_backup_disjoint = false;
  sim::ExperimentConfig ec;
  ec.warmup = 10.0;
  ec.sample_interval = 20.0;
  ec.after_event = [&](const core::DrtpNetwork& net, Time t,
                       std::string_view event,
                       const core::SwitchoverReport* report) {
    auditor.Check(net, t, event, report);
    if (event == "final") {
      const core::DrConnection* conn = net.Find(1);
      if (conn != nullptr && conn->has_backup()) {
        final_backup_disjoint =
            conn->first_backup()->LinkDisjoint(conn->primary);
      }
    }
  };
  core::Dlsr scheme;
  const sim::RunMetrics m = sim::RunScenario(topo, sc, scheme, ec);

  EXPECT_EQ(m.failover_recovered, 1);
  EXPECT_EQ(m.degraded, 1);
  EXPECT_EQ(m.backups_reestablished, 0);  // the shadow backup is refused
  EXPECT_GE(m.reprotect_retries, 1);
  EXPECT_EQ(m.reprotect_recovered, 1);
  EXPECT_EQ(m.reprotect_exhausted, 0);
  EXPECT_TRUE(final_backup_disjoint);
  EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                    ? ""
                                    : auditor.violations()[0].invariant);
}

// ---- failure during recovery (timed protocol engine) ---------------------

struct ProtoHarness {
  explicit ProtoHarness(net::Topology topo)
      : net(std::move(topo)),
        db(net.topology().num_links(), net.topology().num_links()),
        engine(net, queue, proto::ProtocolConfig{}, &dlsr, &db) {
    net.PublishTo(db, 0.0);
  }

  routing::Path Path(std::vector<NodeId> nodes) {
    auto p = routing::Path::FromNodes(net.topology(), std::move(nodes));
    DRTP_CHECK(p.has_value());
    return *p;
  }

  core::DrtpNetwork net;
  sim::EventQueue queue;
  lsdb::LinkStateDb db;
  core::Dlsr dlsr;
  proto::ProtocolEngine engine;
};

// A second failure of the SAME primary lands inside the first failure's
// detection→report→activation window. The stale second report must not
// promote (or release) the backup a second time.
TEST(MidRecovery, SecondPrimaryFailureDoesNotDoublePromote) {
  ProtoHarness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, h.Path({0, 1, 2}), h.Path({0, 3, 4, 5, 2}),
                           Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();

  Auditor auditor;
  h.engine.set_after_action(
      [&auditor](const core::DrtpNetwork& net, Time t) {
        auditor.Check(net, t);
      });
  h.queue.Schedule(1.0, [&] {
    InjectMidRecoveryPair(h.engine, h.queue,
                          h.net.topology().FindLink(0, 1),
                          h.net.topology().FindLink(1, 2),
                          proto::RecoveryMode::kProactive);
  });
  h.queue.RunAll();

  // Exactly one successful promotion for the connection, never two.
  int successes = 0;
  for (const auto& r : h.engine.recoveries()) {
    successes += (r.conn == 1 && r.success);
  }
  EXPECT_EQ(successes, 1);
  const core::DrConnection* conn = h.net.Find(1);
  ASSERT_NE(conn, nullptr);
  // The promoted primary is the old backup: it avoids both dead links.
  EXPECT_FALSE(conn->primary.Contains(h.net.topology().FindLink(0, 1)));
  EXPECT_FALSE(conn->primary.Contains(h.net.topology().FindLink(1, 2)));
  EXPECT_GT(auditor.checks(), 0);
  EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                    ? ""
                                    : auditor.violations()[0].invariant);
  h.net.CheckConsistency();
}

// The backup itself fails while its promotion is in flight: activation
// must fail gracefully (no promotion onto a dead route, no double
// release) and leave the ledger coherent.
TEST(MidRecovery, BackupFailingMidPromotionIsNotActivated) {
  ProtoHarness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, h.Path({0, 1, 2}), h.Path({0, 3, 4, 5, 2}),
                           Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();

  Auditor auditor;
  h.engine.set_after_action(
      [&auditor](const core::DrtpNetwork& net, Time t) {
        auditor.Check(net, t);
      });
  const LinkId backup_link = h.net.topology().FindLink(3, 4);
  h.queue.Schedule(1.0, [&] {
    InjectMidRecoveryPair(h.engine, h.queue,
                          h.net.topology().FindLink(0, 1), backup_link,
                          proto::RecoveryMode::kProactive);
  });
  h.queue.RunAll();

  // However the race resolves, the connection never runs over a dead
  // link and was promoted at most once.
  int successes = 0;
  for (const auto& r : h.engine.recoveries()) {
    successes += (r.conn == 1 && r.success);
  }
  EXPECT_LE(successes, 1);
  if (const core::DrConnection* conn = h.net.Find(1)) {
    EXPECT_FALSE(conn->primary.Contains(h.net.topology().FindLink(0, 1)));
    EXPECT_FALSE(conn->primary.Contains(backup_link));
  }
  EXPECT_TRUE(auditor.ok()) << (auditor.violations().empty()
                                    ? ""
                                    : auditor.violations()[0].invariant);
  h.net.CheckConsistency();
}

}  // namespace
}  // namespace drtp::fault
