// Tests for the timed DRTP protocol engine: setup latency, reject
// round-trips, proactive switchover latency (detection + report +
// activation), reactive re-establishment with backoff retries, and the
// proactive-vs-reactive ordering the paper's §1 motivation claims.
#include <gtest/gtest.h>

#include "common/check.h"
#include "drtp/baselines.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "net/generators.h"
#include "proto/engine.h"

namespace drtp::proto {
namespace {

routing::Path NodePath(const net::Topology& topo,
                       std::vector<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, nodes);
  DRTP_CHECK(p.has_value());
  return *p;
}

struct Harness {
  explicit Harness(net::Topology topo,
                   ProtocolConfig config = ProtocolConfig{})
      : net(std::move(topo)),
        db(net.topology().num_links(), net.topology().num_links()),
        engine(net, queue, config, &dlsr, &db) {
    net.PublishTo(db, 0.0);
  }

  core::DrtpNetwork net;
  sim::EventQueue queue;
  lsdb::LinkStateDb db;
  core::Dlsr dlsr;
  ProtocolEngine engine;
};

TEST(ProtoSetup, ConfirmArrivesAfterRoundTrip) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  const auto primary = NodePath(h.net.topology(), {0, 1, 2});
  const auto backup = NodePath(h.net.topology(), {0, 3, 4, 5, 2});
  Time done_at = -1.0;
  bool ok = false;
  h.engine.SetupConnection(1, primary, backup, Mbps(1),
                           [&](ConnId, bool success) {
                             done_at = h.queue.now();
                             ok = success;
                           });
  h.queue.RunAll();
  EXPECT_TRUE(ok);
  // 2 hops forward + 2 hops confirm at 1 ms each.
  EXPECT_DOUBLE_EQ(done_at, 0.004);
  EXPECT_NE(h.net.Find(1), nullptr);
  EXPECT_TRUE(h.net.Find(1)->has_backup());
}

TEST(ProtoSetup, RejectReleasesAndTimesRoundTripToRefusingHop) {
  net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  Harness h(std::move(topo));
  // Saturate the second hop 1->2.
  ASSERT_TRUE(h.net.EstablishConnection(
      9, NodePath(h.net.topology(), {1, 2}), Mbps(2), 0.0));
  bool ok = true;
  Time done_at = -1.0;
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1, 2}),
                           std::nullopt, Mbps(1), [&](ConnId, bool success) {
                             ok = success;
                             done_at = h.queue.now();
                           });
  h.queue.RunAll();
  EXPECT_FALSE(ok);
  EXPECT_EQ(h.net.Find(1), nullptr);
  // Refused at hop 2: 2 ms out + 2 ms back, but the decision itself lands
  // at 2 ms (destination arrival) — reject completes at 4 ms.
  EXPECT_DOUBLE_EQ(done_at, 0.004);
  // No stranded bandwidth on the first hop.
  EXPECT_EQ(h.net.ledger().prime(h.net.topology().FindLink(0, 1)), 0);
}

TEST(ProtoFailure, ProactiveLatencyIsDetectionPlusReportPlusActivation) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  const auto primary = NodePath(h.net.topology(), {0, 1, 2});
  const auto backup = NodePath(h.net.topology(), {0, 3, 4, 5, 2});
  h.engine.SetupConnection(1, primary, backup, Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();

  // Fail the second primary hop (1->2): report travels 1 hop to node 0,
  // activation walks the 4-hop backup.
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(1, 2),
                               RecoveryMode::kProactive);
  });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 1u);
  const RecoveryRecord& r = h.engine.recoveries()[0];
  EXPECT_TRUE(r.success);
  EXPECT_DOUBLE_EQ(r.failed_at, 1.0);
  // 20 ms detection + 1 ms report + 4 ms activation.
  EXPECT_NEAR(r.latency(), 0.020 + 0.001 + 0.004, 1e-9);
  // Step 4 re-protected the promoted connection.
  EXPECT_TRUE(h.net.Find(1)->has_backup());
  h.net.CheckConsistency();
}

TEST(ProtoFailure, ProactiveWithoutBackupDrops) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1}),
                           std::nullopt, Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kProactive);
  });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 1u);
  EXPECT_FALSE(h.engine.recoveries()[0].success);
  EXPECT_EQ(h.net.ActiveCount(), 0);
  EXPECT_EQ(h.engine.RecoveryRatio(), 0.0);
}

TEST(ProtoFailure, ReactiveReestablishesWhenCapacityExists) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1, 2}),
                           std::nullopt, Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kReactive);
  });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 1u);
  const RecoveryRecord& r = h.engine.recoveries()[0];
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.retries, 0);
  // Reactive latency: detection + report + route discovery + timed setup
  // round trip; necessarily slower than a proactive activation here.
  EXPECT_GT(r.latency(), 0.020);
  const core::DrConnection* conn = h.net.Find(1);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->primary.Contains(h.net.topology().FindLink(0, 1)));
}

TEST(ProtoFailure, ReactiveRetriesWithBackoffThenSucceeds) {
  // Ring of 4, capacity 1: connection 0->1 direct; after failing 0->1 the
  // only alternative (0-3-2-1) is blocked by a squatter on 3->2 that we
  // release during the backoff window — forcing exactly one retry.
  ProtocolConfig cfg;
  cfg.reactive_backoff = 0.200;
  Harness h(net::MakeRing(4, Mbps(1)), cfg);
  ASSERT_TRUE(h.net.EstablishConnection(
      9, NodePath(h.net.topology(), {3, 2}), Mbps(1), 0.0));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1}),
                           std::nullopt, Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kReactive);
  });
  // Free the squatter while the first retry is backing off.
  h.queue.Schedule(1.1, [&] { h.net.ReleaseConnection(9); });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 1u);
  const RecoveryRecord& r = h.engine.recoveries()[0];
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.retries, 1);
  EXPECT_GT(r.latency(), 0.100);  // paid at least one backoff
}

TEST(ProtoFailure, ReactiveGivesUpAfterMaxRetries) {
  ProtocolConfig cfg;
  cfg.reactive_max_retries = 2;
  cfg.reactive_backoff = 0.050;
  Harness h(net::MakeRing(4, Mbps(1)), cfg);
  ASSERT_TRUE(h.net.EstablishConnection(
      9, NodePath(h.net.topology(), {3, 2}), Mbps(1), 0.0));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1}),
                           std::nullopt, Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kReactive);
  });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 1u);
  const RecoveryRecord& r = h.engine.recoveries()[0];
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.retries, 2);
}

TEST(ProtoFailure, ContentionResolvedInReportArrivalOrder) {
  // Two connections share spare capacity sufficient for one activation;
  // the one whose source is closer to the fault reports first and wins.
  net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  Harness h(std::move(topo));
  // Both primaries cross 0->1; both backups need 0->3 where only one slot
  // exists because a squatter primary holds 1 Mbps of 0->3's 2 Mbps.
  ASSERT_TRUE(h.net.EstablishConnection(
      9, NodePath(h.net.topology(), {0, 3}), Mbps(1), 0.0));
  ASSERT_TRUE(h.net.EstablishConnection(
      1, NodePath(h.net.topology(), {0, 1}), Mbps(1), 0.0));
  h.net.RegisterBackup(1, NodePath(h.net.topology(), {0, 3, 4, 1}));
  ASSERT_TRUE(h.net.EstablishConnection(
      2, NodePath(h.net.topology(), {0, 1, 2}), Mbps(1), 0.0));
  h.net.RegisterBackup(2, NodePath(h.net.topology(), {0, 3, 4, 5, 2}));
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kProactive);
  });
  h.queue.RunAll();
  ASSERT_EQ(h.engine.recoveries().size(), 2u);
  int succeeded = 0;
  for (const auto& r : h.engine.recoveries()) succeeded += r.success;
  EXPECT_EQ(succeeded, 1);  // one slot, one winner
  h.net.CheckConsistency();
}

TEST(ProtoFailure, BrokenBackupsWithdrawnOnDetection) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1, 2}),
                           NodePath(h.net.topology(), {0, 3, 4, 5, 2}),
                           Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  const LinkId dead = h.net.topology().FindLink(3, 4);
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(dead, RecoveryMode::kProactive);
  });
  // Just past the detection delay the broken backup has been withdrawn
  // and the connection is degraded (unprotected), awaiting its first
  // re-protection retry.
  h.queue.Schedule(1.0 + h.engine.config().detection_delay + 1e-6, [&] {
    const core::DrConnection* conn = h.net.Find(1);
    ASSERT_NE(conn, nullptr);
    EXPECT_FALSE(conn->has_backup());
    EXPECT_EQ(h.engine.degraded(), 1);
  });
  h.queue.RunAll();
  const core::DrConnection* conn = h.net.Find(1);
  ASSERT_NE(conn, nullptr);
  // No failover happened (the primary never broke)...
  EXPECT_TRUE(h.engine.recoveries().empty());
  // ...and the backoff retry re-protected around the dead link.
  EXPECT_EQ(h.engine.reprotect_recovered(), 1);
  ASSERT_TRUE(conn->has_backup());
  EXPECT_FALSE(conn->first_backup()->Contains(dead));
  h.net.CheckConsistency();
}

TEST(ProtoFailure, NodeFailureDropsEndpointsAndSwitchesTransit) {
  // A node fails as the set of its incident links: connection 1 ends at
  // node 4 (so does its backup) and drops; connection 2 only crosses it
  // and switches to its backup around the node.
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  const net::Topology& topo = h.net.topology();
  h.engine.SetupConnection(1, NodePath(topo, {3, 4}),
                           NodePath(topo, {3, 0, 1, 4}), Mbps(1),
                           [](ConnId, bool) {});
  h.engine.SetupConnection(2, NodePath(topo, {3, 4, 5}),
                           NodePath(topo, {3, 6, 7, 8, 5}), Mbps(1),
                           [](ConnId, bool) {});
  h.queue.RunAll();
  ASSERT_TRUE(h.net.Find(1)->has_backup());
  ASSERT_TRUE(h.net.Find(2)->has_backup());
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkSetFailure(core::IncidentLinks(topo, 4),
                                  RecoveryMode::kProactive);
  });
  h.queue.RunAll();
  for (const LinkId l : core::IncidentLinks(topo, 4)) {
    EXPECT_FALSE(h.net.IsLinkUp(l)) << l;
  }
  EXPECT_EQ(h.net.Find(1), nullptr);
  const core::DrConnection* transit = h.net.Find(2);
  ASSERT_NE(transit, nullptr);
  EXPECT_EQ(transit->primary, NodePath(topo, {3, 6, 7, 8, 5}));
  ASSERT_EQ(h.engine.recoveries().size(), 2u);
  for (const RecoveryRecord& r : h.engine.recoveries()) {
    EXPECT_EQ(r.success, r.conn == 2) << r.conn;
  }
  h.net.CheckConsistency();
}

TEST(ProtoStats, LatencyAggregation) {
  Harness h(net::MakeGrid(3, 3, Mbps(10)));
  h.engine.SetupConnection(1, NodePath(h.net.topology(), {0, 1, 2}),
                           NodePath(h.net.topology(), {0, 3, 4, 5, 2}),
                           Mbps(1), [](ConnId, bool) {});
  h.queue.RunAll();
  h.queue.Schedule(1.0, [&] {
    h.engine.InjectLinkFailure(h.net.topology().FindLink(0, 1),
                               RecoveryMode::kProactive);
  });
  h.queue.RunAll();
  const RunningStat lat = h.engine.SuccessLatencies();
  EXPECT_EQ(lat.count(), 1);
  EXPECT_GT(lat.mean(), 0.0);
  EXPECT_EQ(h.engine.RecoveryRatio(), 1.0);
}

}  // namespace
}  // namespace drtp::proto
