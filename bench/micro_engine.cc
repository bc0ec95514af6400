// Microbenchmark suite for the engine's hot-path kernels.
//
// Times the kernels the simulation spends its cycles in — LSDB
// publication, Dijkstra, backup selection, the single-link failure sweep —
// and emits one JSON document (schema drtp.micro/1) through the runner's
// JSON writer. Superseded kernels (full-table publish, allocating
// Dijkstra, full-scan failure sweep, bit-loop CV scoring) are measured
// alongside their replacements, so every run carries its own
// before/after comparison.
//
//   micro_engine                      # human-readable table on stdout
//   micro_engine --out=BENCH_micro.json
//   micro_engine --quick --validate   # CI perf-smoke: fast + schema check
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/rng.h"
#include "drtp/admission.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "lsdb/aplv.h"
#include "net/generators.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "oracle/failure_scan.h"
#include "routing/dijkstra.h"
#include "runner/json.h"
#include "sim/paper.h"
#include "sim/scenario.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace drtp::bench {
namespace {

constexpr std::string_view kSchema = "drtp.micro/1";

template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct KernelResult {
  std::string name;
  std::int64_t iters = 0;
  double ns_per_op = 0.0;
};

/// Runs `fn` repeatedly — doubling the batch size until the accumulated
/// measured time passes `min_time_s` — and reports mean ns per call.
class Timer {
 public:
  explicit Timer(double min_time_s) : min_time_s_(min_time_s) {}

  template <typename Fn>
  KernelResult Measure(std::string name, Fn&& fn) {
    using Clock = std::chrono::steady_clock;
    fn();  // warm caches and one-time lazy setup outside the clock
    std::int64_t iters = 0;
    double elapsed_s = 0.0;
    std::int64_t batch = 1;
    while (elapsed_s < min_time_s_) {
      const auto start = Clock::now();
      for (std::int64_t i = 0; i < batch; ++i) fn();
      const auto stop = Clock::now();
      elapsed_s += std::chrono::duration<double>(stop - start).count();
      iters += batch;
      batch *= 2;
    }
    return KernelResult{std::move(name), iters,
                        elapsed_s * 1e9 / static_cast<double>(iters)};
  }

 private:
  double min_time_s_;
};

/// Offers `count` random 1 Mbps D-LSR requests to `net`, publishing to
/// `db` before each; returns the ids admitted.
std::vector<ConnId> LoadConnections(const net::Topology& topo,
                                    core::DrtpNetwork& net,
                                    lsdb::LinkStateDb& db, std::uint64_t seed,
                                    int count) {
  core::Dlsr scheme;
  Rng rng(seed);
  std::vector<ConnId> ids;
  const auto nodes = static_cast<std::size_t>(topo.num_nodes());
  for (ConnId id = 0; id < count; ++id) {
    const NodeId src = static_cast<NodeId>(rng.Index(nodes));
    NodeId dst = static_cast<NodeId>(rng.Index(nodes));
    if (dst == src) dst = (dst + 1) % topo.num_nodes();
    net.PublishTo(db, 0.0);
    auto sel = scheme.SelectRoutes(net, db, src, dst, Mbps(1));
    if (sel.primary &&
        net.EstablishConnection(id, *sel.primary, Mbps(1), 0.0)) {
      if (sel.backup) net.RegisterBackup(id, *sel.backup);
      ids.push_back(id);
    }
  }
  net.PublishTo(db, 0.0);
  return ids;
}

/// The shared fixture: the paper's 60-node topology loaded with ~300
/// protected connections, so APLVs, spare pools and the reverse indexes
/// are all non-trivial.
struct LoadedNet {
  explicit LoadedNet(std::uint64_t seed)
      : topo(sim::MakePaperTopology(3.0, 1)),
        net(topo),
        db(topo.num_links(), topo.num_links()),
        conn_ids(LoadConnections(topo, net, db, seed, 300)) {}

  net::Topology topo;
  core::DrtpNetwork net;
  lsdb::LinkStateDb db;
  std::vector<ConnId> conn_ids;
};

std::vector<KernelResult> RunSuite(LoadedNet& fx, double min_time_s,
                                   std::uint64_t seed) {
  Timer timer(min_time_s);
  std::vector<KernelResult> out;
  const int num_links = fx.topo.num_links();
  const auto nodes = static_cast<std::size_t>(fx.topo.num_nodes());

  // --- LSDB publication --------------------------------------------------
  out.push_back(timer.Measure("publish_full", [&] {
    fx.net.PublishFullTo(fx.db, 0.0);
  }));
  {
    LinkId flip = 0;
    bool down = false;
    out.push_back(timer.Measure("publish_incremental", [&] {
      // One link-state flip per publication — the simulator's typical
      // dirty-set size between instant-mode publications.
      down = !down;
      if (down) {
        fx.net.SetLinkDown(flip);
      } else {
        fx.net.SetLinkUp(flip);
        flip = (flip + 1) % num_links;
      }
      fx.net.PublishTo(fx.db, 0.0);
    }));
    if (down) fx.net.SetLinkUp(flip);  // leave the fixture intact
    fx.net.PublishTo(fx.db, 0.0);
  }

  // --- Dijkstra ----------------------------------------------------------
  const auto unit_cost = [&](LinkId l) {
    return fx.db.record(l).up ? 1.0 : routing::kInfiniteCost;
  };
  {
    Rng rng(seed + 1);
    out.push_back(timer.Measure("dijkstra_tree_alloc", [&] {
      const NodeId src = static_cast<NodeId>(rng.Index(nodes));
      DoNotOptimize(routing::RunDijkstra(fx.topo, src, unit_cost));
    }));
  }
  {
    Rng rng(seed + 1);
    routing::DijkstraWorkspace ws;
    out.push_back(timer.Measure("dijkstra_workspace", [&] {
      const NodeId src = static_cast<NodeId>(rng.Index(nodes));
      routing::RunDijkstra(fx.topo, src, unit_cost, ws);
      DoNotOptimize(ws.Reached(0));
    }));
  }

  // --- backup selection (Eq. 4 / Eq. 5) ----------------------------------
  const auto backup_select = [&](const char* name, bool deterministic) {
    Rng rng(seed + 2);
    return timer.Measure(name, [&] {
      const ConnId id = fx.conn_ids[rng.Index(fx.conn_ids.size())];
      const core::DrConnection* conn = fx.net.Find(id);
      DoNotOptimize(core::SelectBackupLsr(fx.topo, fx.db, conn->primary_lset,
                                          conn->src, conn->dst, conn->bw,
                                          deterministic));
    });
  };
  out.push_back(backup_select("backup_select_dlsr", true));
  out.push_back(backup_select("backup_select_plsr", false));

  // --- single-link failure sweep -----------------------------------------
  out.push_back(timer.Measure("failure_sweep_scan", [&] {
    DoNotOptimize(oracle::EvaluateAllSingleLinkFailuresScan(fx.net));
  }));
  out.push_back(timer.Measure("failure_sweep_indexed", [&] {
    DoNotOptimize(core::EvaluateAllSingleLinkFailures(fx.net));
  }));

  // --- APLV / conflict-vector primitives ---------------------------------
  // A 5-link LSET spread across the id range (typical primary length).
  const routing::LinkSet probe_lset = routing::MakeLinkSet(
      {num_links / 8, num_links / 4, num_links / 2, (num_links * 3) / 4,
       num_links - 1});
  {
    lsdb::Aplv aplv(num_links);
    const routing::LinkSet& lset = probe_lset;
    out.push_back(timer.Measure("aplv_update", [&] {
      aplv.AddPrimaryLset(lset);
      aplv.RemovePrimaryLset(lset);
      DoNotOptimize(aplv);
    }));
  }
  {
    lsdb::ConflictVector cv(num_links);
    Rng rng(seed + 3);
    for (int i = 0; i < num_links / 4; ++i) {
      cv.Set(static_cast<LinkId>(rng.Index(static_cast<std::size_t>(
                 num_links))),
             true);
    }
    const routing::LinkSet& lset = probe_lset;
    std::vector<std::uint64_t> mask(
        static_cast<std::size_t>((num_links + 63) / 64), 0);
    for (LinkId l : lset) {
      mask[static_cast<std::size_t>(l) / 64] |= std::uint64_t{1}
                                                << (l % 64);
    }
    out.push_back(timer.Measure("cv_count_in", [&] {
      DoNotOptimize(cv.CountIn(lset));
    }));
    out.push_back(timer.Measure("cv_and_popcount", [&] {
      DoNotOptimize(cv.AndPopCount(mask));
    }));
  }

  // --- obs instrumentation cost ------------------------------------------
  // The raw price of one scoped span (two clock reads + one histogram
  // observe) plus one counter add — the instrumentation unit every
  // DRTP_OBS_SPAN site pays. Compiled with -DDRTP_OBS_DISABLED this times
  // an empty body, demonstrating the zero-cost-off contract.
  {
    const obs::Counter count = obs::GetCounter("bench.obs.counter");
    out.push_back(timer.Measure("obs_span_overhead", [&] {
      DRTP_OBS_SPAN("bench.obs.span");
      count.Add();
      DoNotOptimize(count);
    }));
  }

  // --- drtpd telemetry unit costs ----------------------------------------
  // flight_recorder_append: one event into the calling thread's ring (a
  // seqlock'd slot write — the always-on post-mortem recorder's whole
  // hot path). pipeline_span_stamp: the per-request price the svc
  // pipeline pays at respond time — one clock read plus the
  // end-to-end/per-stage/per-method histogram observes. Both compile to
  // (nearly) nothing under -DDRTP_OBS_DISABLED.
  {
    obs::FlightRecorder& fr = obs::FlightRecorder::Global();
    std::int64_t seq = 0;
    out.push_back(timer.Measure("flight_recorder_append", [&] {
      fr.Record(obs::FlightKind::kRpcSpan, seq, 0, 1000, 2000, 3000, 4000);
      ++seq;
      DoNotOptimize(seq);
    }));

    const obs::Histogram total =
        obs::GetTimingHistogram("bench.svc.request_ns");
    const obs::Histogram stages[4] = {
        obs::GetTimingHistogram("bench.svc.stage.decode_ns"),
        obs::GetTimingHistogram("bench.svc.stage.reorder_ns"),
        obs::GetTimingHistogram("bench.svc.stage.engine_ns"),
        obs::GetTimingHistogram("bench.svc.stage.respond_ns"),
    };
    const obs::Histogram method =
        obs::GetTimingHistogram("bench.svc.request_ns.admit.ok");
    std::int64_t prev_ns = MonotonicClock::Instance().NowNs();
    out.push_back(timer.Measure("pipeline_span_stamp", [&] {
      const std::int64_t now_ns = MonotonicClock::Instance().NowNs();
      const std::int64_t lat = now_ns - prev_ns;
      prev_ns = now_ns;
      total.Observe(lat);
      for (const obs::Histogram& h : stages) h.Observe(lat / 4);
      method.Observe(lat);
      DoNotOptimize(prev_ns);
    }));
  }

  // --- end-to-end request cycle ------------------------------------------
  {
    core::Dlsr scheme;
    Rng rng(seed + 4);
    ConnId next = 1 << 20;
    out.push_back(timer.Measure("request_cycle_dlsr", [&] {
      const NodeId src = static_cast<NodeId>(rng.Index(nodes));
      NodeId dst = static_cast<NodeId>(rng.Index(nodes));
      if (dst == src) dst = (dst + 1) % fx.topo.num_nodes();
      fx.net.PublishTo(fx.db, 0.0);
      auto sel = scheme.SelectRoutes(fx.net, fx.db, src, dst, Mbps(1));
      if (sel.primary &&
          fx.net.EstablishConnection(next, *sel.primary, Mbps(1), 0.0)) {
        if (sel.backup) fx.net.RegisterBackup(next, *sel.backup);
        fx.net.ReleaseConnection(next);
        ++next;
      }
    }));
  }

  // --- batched admission (the drtpd engine's amortization) ---------------
  // 64 admissions per call, released again at the end so the fixture is
  // unchanged. admit_one_by_one publishes the LSDB before every admission
  // (the simulator's instant mode and drtpd --batch=1); admit_batch takes
  // one snapshot for the whole batch (drtpd's default pipeline mode) —
  // the before/after pair for the daemon's batching claim.
  {
    constexpr int kBatch = 64;
    core::Dlsr scheme;
    const auto admit_cycle = [&](const char* name, bool batched) {
      Rng rng(seed + 5);
      ConnId next = 1 << 21;
      return timer.Measure(name, [&] {
        if (batched) fx.net.PublishTo(fx.db, 0.0);
        const ConnId base = next;
        for (int i = 0; i < kBatch; ++i) {
          if (!batched) fx.net.PublishTo(fx.db, 0.0);
          const NodeId src = static_cast<NodeId>(rng.Index(nodes));
          NodeId dst = static_cast<NodeId>(rng.Index(nodes));
          if (dst == src) dst = (dst + 1) % fx.topo.num_nodes();
          DoNotOptimize(core::AdmitConnection(scheme, fx.net, fx.db,
                                              base + i, src, dst, Mbps(1),
                                              0.0));
        }
        for (int i = 0; i < kBatch; ++i) {
          if (fx.net.Find(base + i) != nullptr) {
            fx.net.ReleaseConnection(base + i);
          }
        }
        next += kBatch;
      });
    };
    out.push_back(admit_cycle("admit_one_by_one", false));
    out.push_back(admit_cycle("admit_batch", true));
    fx.net.PublishTo(fx.db, 0.0);  // leave the fixture's LSDB clean
  }

  // --- durability kernels -------------------------------------------------
  // wal_append_fsync: one group commit — a 64-event batch record rendered,
  // framed, written and fsynced — the price every drtpd batch pays before
  // its responses are released. Dominated by the sync, so this number is a
  // device characteristic as much as a code one. snapshot_serialize: the
  // drtp.snap/1 body render over the ~300-connection fixture — the
  // off-critical-path cost --snapshot-interval adds per snapshot.
  {
    const std::string wal_path =
        "/tmp/drtp_micro_wal." +
        std::to_string(static_cast<long long>(::getpid()));
    std::remove(wal_path.c_str());
    std::string error;
    std::unique_ptr<svc::Wal> wal = svc::Wal::Open(wal_path, seed, &error);
    if (wal == nullptr) {
      std::fprintf(stderr, "micro_engine: wal open failed: %s\n",
                   error.c_str());
    } else {
      std::vector<sim::ScenarioEvent> events;
      Rng rng(seed + 6);
      for (int i = 0; i < 64; ++i) {
        sim::ScenarioEvent e;
        e.type = sim::ScenarioEvent::Type::kRequest;
        e.time = static_cast<Time>(i);
        e.conn = static_cast<ConnId>(i);
        e.src = static_cast<NodeId>(rng.Index(nodes));
        e.dst = static_cast<NodeId>(rng.Index(nodes));
        if (e.dst == e.src) e.dst = (e.dst + 1) % fx.topo.num_nodes();
        e.bw = Mbps(1);
        events.push_back(e);
      }
      out.push_back(timer.Measure("wal_append_fsync", [&] {
        std::string err;
        if (!wal->AppendBatch(events, &err)) std::abort();
      }));
      wal.reset();
      std::remove(wal_path.c_str());
    }
  }
  out.push_back(timer.Measure("snapshot_serialize", [&] {
    DoNotOptimize(svc::RenderSnapshotBody(fx.net, svc::EngineStats{}, 0,
                                          seed, 0, "D-LSR", ""));
  }));

  return out;
}

/// One large-N fixture summary for the JSON document.
struct LargeTopo {
  std::string tag;
  int nodes = 0;
  int links = 0;
};

/// Large-N rows: the CSR/radix-heap engine measured against the retained
/// reference kernels on hierarchical ISP graphs. The layouts only
/// separate at scale — 60 nodes fits any cache level — so these rows are
/// what the ROADMAP item-1 speedup claims are read from. At the 10k size
/// (≈26k duplex links > lsdb::kWideLinkThreshold) the APLV/CV rows run
/// the wide sparse/lazy storage; at 1k they run the dense path.
std::vector<KernelResult> RunLargeSuite(double min_time_s,
                                        std::uint64_t seed,
                                        std::vector<LargeTopo>& topos) {
  Timer timer(min_time_s);
  std::vector<KernelResult> out;
  struct Size {
    const char* tag;
    net::HierConfig cfg;
  };
  const Size sizes[] = {
      {"1k",
       {.backbone = 10, .pops_per_backbone = 3, .metro_per_pop = 32,
        .seed = 7}},
      {"10k",
       {.backbone = 16, .pops_per_backbone = 6, .metro_per_pop = 103,
        .seed = 7}},
  };
  for (const Size& s : sizes) {
    const net::Topology topo = net::MakeHierarchical(s.cfg);
    const auto nodes = static_cast<std::size_t>(topo.num_nodes());
    const int num_links = topo.num_links();
    topos.push_back(LargeTopo{s.tag, topo.num_nodes(), num_links});
    core::DrtpNetwork net(topo);
    lsdb::LinkStateDb db(num_links, num_links);
    net.PublishTo(db, 0.0);
    const auto name = [&](const char* kernel) {
      return std::string(kernel) + "_" + s.tag;
    };

    // --- single-source trees: adjacency-list vs CSR vs bucket queue ------
    const auto unit_cost = [&](LinkId l) {
      return db.record(l).up ? 1.0 : routing::kInfiniteCost;
    };
    const auto unit_int_cost = [&](LinkId l) {
      return db.record(l).up ? std::int64_t{1} : routing::kInfiniteIntCost;
    };
    {
      Rng rng(seed + 11);
      routing::DijkstraWorkspace ws;
      out.push_back(timer.Measure(name("dijkstra_adjlist"), [&] {
        const NodeId src = static_cast<NodeId>(rng.Index(nodes));
        routing::detail::RunDijkstraLoopAdjList(topo, src, unit_cost, ws);
        DoNotOptimize(ws.Reached(0));
      }));
    }
    {
      Rng rng(seed + 11);
      routing::DijkstraWorkspace ws;
      out.push_back(timer.Measure(name("dijkstra_csr"), [&] {
        const NodeId src = static_cast<NodeId>(rng.Index(nodes));
        routing::RunDijkstra(topo, src, unit_cost, ws);
        DoNotOptimize(ws.Reached(0));
      }));
    }
    {
      Rng rng(seed + 11);
      routing::DijkstraWorkspace ws;
      out.push_back(timer.Measure(name("dijkstra_radix"), [&] {
        const NodeId src = static_cast<NodeId>(rng.Index(nodes));
        routing::RunDijkstraInt(topo, src, unit_int_cost, ws);
        DoNotOptimize(ws.Reached(0));
      }));
    }

    // --- admission primary selection: the before/after pair ---------------
    const auto rand_pair = [&](Rng& rng, NodeId& src, NodeId& dst) {
      src = static_cast<NodeId>(rng.Index(nodes));
      dst = static_cast<NodeId>(rng.Index(nodes));
      if (dst == src) dst = (dst + 1) % topo.num_nodes();
    };
    {
      Rng rng(seed + 12);
      out.push_back(timer.Measure(name("minhop_binary"), [&] {
        NodeId src, dst;
        rand_pair(rng, src, dst);
        DoNotOptimize(core::detail::SelectPrimaryMinHopBinaryHeap(
            topo, db, src, dst, Mbps(1)));
      }));
    }
    {
      Rng rng(seed + 12);
      out.push_back(timer.Measure(name("minhop_radix"), [&] {
        NodeId src, dst;
        rand_pair(rng, src, dst);
        DoNotOptimize(core::SelectPrimaryMinHop(topo, db, src, dst, Mbps(1)));
      }));
    }

    // --- protection-state primitives at width num_links -------------------
    const routing::LinkSet probe_lset = routing::MakeLinkSet(
        {num_links / 8, num_links / 4, num_links / 2, (num_links * 3) / 4,
         num_links - 1});
    {
      lsdb::Aplv aplv(num_links);
      out.push_back(timer.Measure(name("aplv_update"), [&] {
        aplv.AddPrimaryLset(probe_lset);
        aplv.RemovePrimaryLset(probe_lset);
        DoNotOptimize(aplv);
      }));
    }
    {
      lsdb::ConflictVector cv(num_links);
      Rng rng(seed + 13);
      for (int i = 0; i < num_links / 4; ++i) {
        cv.Set(static_cast<LinkId>(
                   rng.Index(static_cast<std::size_t>(num_links))),
               true);
      }
      std::vector<std::uint64_t> mask(
          static_cast<std::size_t>((num_links + 63) / 64), 0);
      for (LinkId l : probe_lset) {
        mask[static_cast<std::size_t>(l) / 64] |= std::uint64_t{1}
                                                  << (l % 64);
      }
      out.push_back(timer.Measure(name("cv_count_in"), [&] {
        DoNotOptimize(cv.CountIn(probe_lset));
      }));
      out.push_back(timer.Measure(name("cv_and_popcount"), [&] {
        DoNotOptimize(cv.AndPopCount(mask));
      }));
    }

    // --- single-link failure sweep on a loaded 1k graph --------------------
    // A separate network, so the rows above keep timing the idle fixture.
    if (std::string_view(s.tag) == "1k") {
      core::DrtpNetwork loaded(topo);
      lsdb::LinkStateDb loaded_db(num_links, num_links);
      (void)LoadConnections(topo, loaded, loaded_db, seed + 14, 1000);
      out.push_back(timer.Measure(name("failure_sweep_scan"), [&] {
        DoNotOptimize(oracle::EvaluateAllSingleLinkFailuresScan(loaded));
      }));
      out.push_back(timer.Measure(name("failure_sweep_indexed"), [&] {
        DoNotOptimize(core::EvaluateAllSingleLinkFailures(loaded));
      }));
    }
  }
  return out;
}

std::string RenderJson(const std::vector<KernelResult>& results,
                       const LoadedNet& fx,
                       const std::vector<LargeTopo>& large, bool quick,
                       double min_time_s) {
  runner::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kSchema);
  w.Key("quick").Bool(quick);
  w.Key("min_time_s").Double(min_time_s);
  w.Key("topology").BeginObject();
  w.Key("nodes").Int(fx.topo.num_nodes());
  w.Key("links").Int(fx.topo.num_links());
  w.Key("connections").Int(static_cast<std::int64_t>(fx.conn_ids.size()));
  w.EndObject();
  w.Key("large_topologies").BeginArray();
  for (const LargeTopo& t : large) {
    w.BeginObject();
    w.Key("tag").String(t.tag);
    w.Key("nodes").Int(t.nodes);
    w.Key("links").Int(t.links);
    w.EndObject();
  }
  w.EndArray();
  w.Key("kernels").BeginArray();
  for (const KernelResult& r : results) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("iters").Int(r.iters);
    w.Key("ns_per_op").Double(r.ns_per_op);
    w.Key("ops_per_sec").Double(1e9 / r.ns_per_op);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

/// Schema check for CI: every expected kernel present, exactly once, with
/// positive timings. Returns the number of problems found.
int Validate(const std::vector<KernelResult>& results) {
  static const char* const kExpected[] = {
      "publish_full",        "publish_incremental", "dijkstra_tree_alloc",
      "dijkstra_workspace",  "backup_select_dlsr",  "backup_select_plsr",
      "failure_sweep_scan",  "failure_sweep_indexed", "aplv_update",
      "cv_count_in",         "cv_and_popcount",     "obs_span_overhead",
      "flight_recorder_append", "pipeline_span_stamp",
      "request_cycle_dlsr",  "admit_one_by_one",    "admit_batch",
      "wal_append_fsync",    "snapshot_serialize",
      "dijkstra_adjlist_1k", "dijkstra_csr_1k",     "dijkstra_radix_1k",
      "minhop_binary_1k",    "minhop_radix_1k",     "aplv_update_1k",
      "cv_count_in_1k",      "cv_and_popcount_1k",
      "failure_sweep_scan_1k", "failure_sweep_indexed_1k",
      "dijkstra_adjlist_10k", "dijkstra_csr_10k",   "dijkstra_radix_10k",
      "minhop_binary_10k",   "minhop_radix_10k",    "aplv_update_10k",
      "cv_count_in_10k",     "cv_and_popcount_10k",
  };
  int problems = 0;
  for (const char* name : kExpected) {
    int found = 0;
    for (const KernelResult& r : results) {
      if (r.name == name) {
        ++found;
        if (r.iters <= 0 || r.ns_per_op <= 0.0) {
          std::fprintf(stderr, "micro_engine: kernel %s has bad timing\n",
                       name);
          ++problems;
        }
      }
    }
    if (found != 1) {
      std::fprintf(stderr, "micro_engine: kernel %s appears %d times\n",
                   name, found);
      ++problems;
    }
  }
  if (results.size() != std::size(kExpected)) {
    std::fprintf(stderr, "micro_engine: %zu kernels, expected %zu\n",
                 results.size(), std::size(kExpected));
    ++problems;
  }
  return problems;
}

int Main(int argc, char** argv) {
  FlagSet flags("micro_engine");
  auto& quick = flags.Bool("quick", false,
                           "short timing windows (CI perf-smoke mode)");
  auto& validate = flags.Bool("validate", false,
                              "check the result set against the expected "
                              "drtp.micro/1 kernel list; nonzero exit on "
                              "mismatch");
  auto& out = flags.String("out", "",
                           "write the drtp.micro/1 JSON document here "
                           "(default: stdout table only)");
  auto& min_time = flags.Double("min_time", 0.0,
                                "seconds of measured time per kernel "
                                "(0 = 0.5, or 0.02 with --quick)");
  auto& seed = flags.Int64("seed", 1, "fixture seed");
  flags.Parse(argc, argv);

  const double min_time_s = min_time > 0.0 ? min_time : (quick ? 0.02 : 0.5);
  LoadedNet fx(static_cast<std::uint64_t>(seed));
  std::vector<KernelResult> results =
      RunSuite(fx, min_time_s, static_cast<std::uint64_t>(seed));
  std::vector<LargeTopo> large;
  {
    std::vector<KernelResult> rows =
        RunLargeSuite(min_time_s, static_cast<std::uint64_t>(seed), large);
    results.insert(results.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
  }

  std::printf("%-24s %12s %14s\n", "kernel", "iters", "ns/op");
  for (const KernelResult& r : results) {
    std::printf("%-24s %12lld %14.1f\n", r.name.c_str(),
                static_cast<long long>(r.iters), r.ns_per_op);
  }

  const std::string json = RenderJson(results, fx, large, quick, min_time_s);
  if (!out.empty()) {
    std::ofstream f(out, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "micro_engine: cannot open %s\n", out.c_str());
      return 1;
    }
    f << json << '\n';
    std::fprintf(stderr, "micro_engine: wrote %s\n", out.c_str());
  }

  if (validate) {
    const int problems = Validate(results);
    if (problems > 0) return 1;
    std::fprintf(stderr, "micro_engine: schema %.*s OK (%zu kernels)\n",
                 static_cast<int>(kSchema.size()), kSchema.data(),
                 results.size());
  }
  return 0;
}

}  // namespace
}  // namespace drtp::bench

int main(int argc, char** argv) { return drtp::bench::Main(argc, argv); }
