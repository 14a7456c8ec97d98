// Profiler: lifecycle leg folding, duplicate/unknown stamp handling,
// incomplete-message accounting, the per-thread/per-host overlap folds,
// and an end-to-end profiled cluster run (report v2 + flow events).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/report.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "rma/engine.hpp"

namespace ncs::obs {
namespace {

using namespace ncs::literals;

TimePoint at(std::int64_t us) {
  return TimePoint::origin() + Duration::picoseconds(us * 1'000'000);
}

TEST(Profiler, FoldsLifecycleLegsIntoLayers) {
  Profiler p;
  const Profiler::MsgKey k{0, 1, 7};
  p.on_enqueue(k, at(0));
  p.on_dequeue(k, at(10));
  p.on_admit(k, at(15));
  p.on_handoff(k, at(40));
  p.on_deliver(k, at(100));
  EXPECT_EQ(p.completed(), 0u);
  EXPECT_EQ(p.incomplete(), 1u);
  p.on_wakeup(k, at(130));

  EXPECT_EQ(p.completed(), 1u);
  EXPECT_EQ(p.incomplete(), 0u);
  EXPECT_EQ(p.hist(Layer::send_queue).max(), (10_us).ps());
  EXPECT_EQ(p.hist(Layer::flow_control).max(), (5_us).ps());
  EXPECT_EQ(p.hist(Layer::transport).max(), (25_us).ps());
  EXPECT_EQ(p.hist(Layer::network).max(), (60_us).ps());
  EXPECT_EQ(p.hist(Layer::mailbox).max(), (30_us).ps());
  EXPECT_EQ(p.hist(Layer::end_to_end).max(), (130_us).ps());
  // The five legs partition end_to_end exactly.
  const std::int64_t legs = p.hist(Layer::send_queue).sum() +
                            p.hist(Layer::flow_control).sum() +
                            p.hist(Layer::transport).sum() + p.hist(Layer::network).sum() +
                            p.hist(Layer::mailbox).sum();
  EXPECT_EQ(legs, p.hist(Layer::end_to_end).sum());
}

TEST(Profiler, IgnoresUnknownKeysAndDuplicateStamps) {
  Profiler p;
  const Profiler::MsgKey k{0, 1, 1};
  p.on_dequeue(k, at(5));  // never enqueued: dropped
  p.on_wakeup(k, at(9));   // unknown: no completion
  EXPECT_EQ(p.completed(), 0u);
  EXPECT_EQ(p.incomplete(), 0u);

  p.on_enqueue(k, at(10));
  p.on_enqueue(k, at(99));  // seq collision: first stamp wins
  p.on_deliver(k, at(20));
  p.on_deliver(k, at(88));  // duplicate delivery: first stamp wins
  p.on_wakeup(k, at(30));
  EXPECT_EQ(p.completed(), 1u);
  EXPECT_EQ(p.hist(Layer::end_to_end).max(), (20_us).ps());
  EXPECT_EQ(p.hist(Layer::mailbox).max(), (10_us).ps());
}

TEST(Profiler, PartialLifecyclesFoldAvailableLegsOnly) {
  Profiler p;
  const Profiler::MsgKey k{2, 3, 9};
  // Local delivery path: no flow-control/transport stamps distinct from
  // enqueue; only enqueue -> deliver -> wakeup.
  p.on_enqueue(k, at(0));
  p.on_deliver(k, at(4));
  p.on_wakeup(k, at(6));
  EXPECT_EQ(p.completed(), 1u);
  EXPECT_EQ(p.hist(Layer::send_queue).count(), 0u);
  EXPECT_EQ(p.hist(Layer::mailbox).count(), 1u);
  EXPECT_EQ(p.hist(Layer::end_to_end).count(), 1u);
}

TEST(Profiler, RecordsAuxiliaryLayersDirectly) {
  Profiler p;
  p.record(Layer::fc_stall, 100_us);
  p.record(Layer::nic_sar, 7_us);
  EXPECT_EQ(p.hist(Layer::fc_stall).count(), 1u);
  EXPECT_EQ(p.hist(Layer::nic_sar).max(), (7_us).ps());
}

TEST(Profiler, RecordCollKeysPerAlgorithmHistograms) {
  Profiler p;
  p.record_coll("allreduce/ring", 40_us);
  p.record_coll("allreduce/ring", 60_us);
  p.record_coll("bcast/binomial_tree", 5_us);
  ASSERT_EQ(p.coll_hists().size(), 2u);
  EXPECT_EQ(p.coll_hists().at("allreduce/ring").count(), 2u);
  EXPECT_EQ(p.coll_hists().at("allreduce/ring").max(), (60_us).ps());
  EXPECT_EQ(p.coll_hists().at("bcast/binomial_tree").count(), 1u);

  JsonWriter w;
  w.begin_object();
  p.write_json(w);
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_NE(doc.find("\"coll\""), std::string::npos);
  EXPECT_NE(doc.find("\"allreduce/ring\""), std::string::npos);
}

TEST(Profiler, WriteJsonEmitsPopulatedLayersAndMessageCounts) {
  Profiler p;
  const Profiler::MsgKey k{0, 1, 2};
  p.on_enqueue(k, at(0));
  p.on_wakeup(k, at(50));
  p.on_enqueue({0, 1, 3}, at(60));  // stays in flight

  JsonWriter w;
  w.begin_object();
  p.write_json(w);
  w.end_object();
  const std::string doc = std::move(w).str();
  EXPECT_NE(doc.find("\"layers\""), std::string::npos);
  EXPECT_NE(doc.find("\"end_to_end\""), std::string::npos);
  EXPECT_EQ(doc.find("\"flow_control\""), std::string::npos);  // empty: omitted
  EXPECT_NE(doc.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"incomplete\":1"), std::string::npos);
}

TEST(Profiler, BottleneckSummaryNamesTheDominantLayer) {
  Profiler p;
  EXPECT_EQ(p.bottleneck_summary(), "no completed messages profiled");
  const Profiler::MsgKey k{0, 1, 4};
  p.on_enqueue(k, at(0));
  p.on_dequeue(k, at(1));
  p.on_admit(k, at(2));
  p.on_handoff(k, at(3));
  p.on_deliver(k, at(90));  // network dominates
  p.on_wakeup(k, at(100));
  const std::string s = p.bottleneck_summary();
  EXPECT_NE(s.find("p99 end-to-end"), std::string::npos);
  EXPECT_NE(s.find("over 1 messages"), std::string::npos);
  EXPECT_NE(s.find("network 87%"), std::string::npos);
}

// --- Timeline folds ---------------------------------------------------------

TEST(OverlapFold, PerThreadTotals) {
  sim::Timeline tl;
  const int t0 = tl.add_track("p0/main");
  tl.transition(t0, at(0), sim::Activity::compute);
  tl.transition(t0, at(10), sim::Activity::communicate);
  tl.transition(t0, at(30), sim::Activity::idle);
  tl.finish(at(35));

  const auto threads = fold_threads(tl);
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].track, "p0/main");
  EXPECT_EQ(threads[0].activity(sim::Activity::compute), 10_us);
  EXPECT_EQ(threads[0].activity(sim::Activity::communicate), 20_us);
  EXPECT_EQ(threads[0].activity(sim::Activity::idle), 5_us);
  EXPECT_EQ(threads[0].span, 35_us);
}

TEST(OverlapFold, HostSweepMeasuresConcurrency) {
  sim::Timeline tl;
  // Two threads on p0: compute on [0,30), communicate on [10,20) — the
  // overlap window is [10,20). A second host p1 idles after one compute.
  const int a = tl.add_track("p0/compute0");
  const int b = tl.add_track("p0/ncs-send");
  const int c = tl.add_track("p1/main");
  tl.transition(a, at(0), sim::Activity::compute);
  tl.transition(b, at(10), sim::Activity::communicate);
  tl.transition(b, at(20), sim::Activity::idle);
  tl.transition(a, at(30), sim::Activity::idle);
  tl.transition(c, at(0), sim::Activity::compute);
  tl.transition(c, at(5), sim::Activity::idle);
  tl.finish(at(40));

  const auto hosts = fold_hosts(tl);
  ASSERT_EQ(hosts.size(), 2u);
  const HostUsage& p0 = hosts[0].host == "p0" ? hosts[0] : hosts[1];
  const HostUsage& p1 = hosts[0].host == "p0" ? hosts[1] : hosts[0];
  EXPECT_EQ(p0.host, "p0");
  EXPECT_EQ(p0.compute, 30_us);
  EXPECT_EQ(p0.communicate, 10_us);
  EXPECT_EQ(p0.overlapped, 10_us);
  EXPECT_DOUBLE_EQ(p0.overlap_ratio(), 1.0);
  EXPECT_EQ(p0.idle, 10_us);
  EXPECT_EQ(p0.span, 40_us);

  EXPECT_EQ(p1.host, "p1");
  EXPECT_EQ(p1.compute, 5_us);
  EXPECT_EQ(p1.communicate, 0_us);
  EXPECT_DOUBLE_EQ(p1.overlap_ratio(), 0.0);
  EXPECT_EQ(p1.overlapped, 0_us);
}

TEST(OverlapFold, TouchingIntervalsDoNotOverlap) {
  sim::Timeline tl;
  // compute [0,10) then communicate [10,20) on sibling threads: the shared
  // boundary at t=10 must not count as concurrency.
  const int a = tl.add_track("p0/t0");
  const int b = tl.add_track("p0/t1");
  tl.transition(a, at(0), sim::Activity::compute);
  tl.transition(a, at(10), sim::Activity::idle);
  tl.transition(b, at(10), sim::Activity::communicate);
  tl.transition(b, at(20), sim::Activity::idle);
  tl.finish(at(20));

  const auto hosts = fold_hosts(tl);
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0].overlapped, 0_us);
  EXPECT_EQ(hosts[0].compute, 10_us);
  EXPECT_EQ(hosts[0].communicate, 10_us);
}

// --- End-to-end: a profiled cluster run -------------------------------------

TEST(ProfiledRun, ReportV3AndFlowEventsFromRealTraffic) {
  using cluster::Cluster;
  cluster::ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.profile = true;
  Cluster c(cfg);
  c.enable_trace();
  c.init_ncs_hsm();

  constexpr int kMessages = 6;
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < kMessages; ++i)
          node.send(0, 0, 1, Bytes(2000, std::byte{1}));
      } else {
        for (int i = 0; i < kMessages; ++i)
          (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });

  ASSERT_NE(c.profiler(), nullptr);
  EXPECT_EQ(c.profiler()->completed(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(c.profiler()->incomplete(), 0u);
  EXPECT_EQ(c.profiler()->hist(Layer::end_to_end).count(),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(c.profiler()->hist(Layer::nic_sar).count(), 0u);

  const std::string report = cluster::report_json(c);
  EXPECT_NE(report.find("\"schema\":\"ncs-run-report-v3\""), std::string::npos);
  EXPECT_NE(report.find("\"profile\""), std::string::npos);
  EXPECT_NE(report.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(report.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(report.find("\"p999_us\""), std::string::npos);
  EXPECT_NE(report.find("\"overlap_ratio\""), std::string::npos);
  EXPECT_NE(report.find("\"hosts\""), std::string::npos);
  EXPECT_NE(report.find("\"threads\""), std::string::npos);

  const std::string bottleneck = cluster::bottleneck_report(c);
  EXPECT_NE(bottleneck.find("p99 end-to-end"), std::string::npos);
  EXPECT_NE(bottleneck.find("end_to_end"), std::string::npos);
  EXPECT_NE(bottleneck.find("p0"), std::string::npos);

  // The trace carries one flow pair per data message, hex ids and the
  // receiver-side binding attribute included.
  const std::string trace = c.trace()->chrome_json();
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(trace.find("\"id\":\"0x"), std::string::npos);
}

TEST(ProfiledRun, UnprofiledReportStaysV1) {
  using cluster::Cluster;
  Cluster c(cluster::sun_atm_lan(2));
  c.init_ncs_hsm();
  c.run([&](int rank) {
    if (rank == 0) c.node(0).send(0, 0, 1, Bytes(100, std::byte{1}));
    else (void)c.node(1).recv(0, 0, 0);
  });
  const std::string report = cluster::report_json(c);
  EXPECT_NE(report.find("\"schema\":\"ncs-run-report-v1\""), std::string::npos);
  EXPECT_EQ(report.find("\"profile\""), std::string::npos);
}

// --- Late attach: a sink turned on after init_* reaches every module ------

/// RMA fetch_adds, a fence, NIC-offloaded barriers and a ring of sends on
/// the 4-host LAN, with `attach` called either before (`late` false) or after init_ncs_hsm.
template <typename Attach>
void run_every_plane(cluster::Cluster& c, bool late, Attach attach) {
  if (!late) attach(c);
  c.init_ncs_hsm();
  if (late) attach(c);
  c.run([&](int rank) {
    rma::Engine& rma = c.rma(rank);
    rma.create_window(0, 64);
    c.node(rank).barrier();
    for (int i = 0; i < 4; ++i) rma.fetch_add(0, 0, 0, 1);
    rma.fence();
    c.node(rank).barrier();
    c.node(rank).send(0, 0, (rank + 1) % 4, Bytes(100, std::byte{1}));
    (void)c.node(rank).recv(0, (rank + 3) % 4, 0);
  });
}

cluster::ClusterConfig every_plane_config() {
  cluster::ClusterConfig cfg = cluster::sun_atm_lan(4);
  cfg.rma_enabled = true;
  cfg.ncs.coll.nic_offload = true;
  return cfg;
}

TEST(ClusterObs, ProfilingEnabledAfterInitSeesEveryPlane) {
  const auto profile = [](cluster::Cluster& c) { c.enable_profiling(); };
  cluster::Cluster early(every_plane_config());
  run_every_plane(early, false, profile);
  cluster::Cluster late(every_plane_config());
  run_every_plane(late, true, profile);

  const Profiler& e = *early.profiler();
  const Profiler& l = *late.profiler();
  EXPECT_GT(e.hist(Layer::rma).count(), 0u);
  EXPECT_GT(e.hist(Layer::nic_coll).count(), 0u);
  EXPECT_EQ(l.hist(Layer::rma).count(), e.hist(Layer::rma).count());
  EXPECT_EQ(l.hist(Layer::nic_coll).count(), e.hist(Layer::nic_coll).count());
  EXPECT_EQ(l.hist(Layer::end_to_end).count(), e.hist(Layer::end_to_end).count());
  EXPECT_EQ(l.hist(Layer::nic_sar).count(), e.hist(Layer::nic_sar).count());
}

TEST(ClusterObs, TraceEnabledAfterInitSeesEveryPlane) {
  cluster::Cluster c(every_plane_config());
  run_every_plane(c, true, [](cluster::Cluster& cl) { cl.enable_trace(); });

  const TraceLog& log = *c.trace();
  const std::string doc = log.chrome_json();
  const auto carries_events = [&](const std::string& name) {
    for (int t = 0; t < log.track_count(); ++t) {
      if (log.track_name(t) == name)
        return doc.find("\"tid\":" + std::to_string(t + 1) + ",\"name\":\"") !=
               std::string::npos;
    }
    return false;
  };
  for (int r = 0; r < 4; ++r) {
    const std::string p = "p" + std::to_string(r);
    for (const std::string& name : {p + "/mps/send", p + "/rma", p + "/nic_coll"})
      EXPECT_TRUE(carries_events(name)) << name << " carries no events";
  }
}

}  // namespace
}  // namespace ncs::obs
