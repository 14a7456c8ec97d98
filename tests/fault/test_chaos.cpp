// End-to-end fault scenarios on the NYNET WAN topology: recovery through
// error control, typed exceptions without it, determinism of faulted runs,
// and host pauses that stall compute without stopping the network.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "core/mps/exception.hpp"
#include "fault/plan.hpp"

namespace ncs::cluster {
namespace {

using namespace ncs::literals;
using mps::Node;
using mps::kAnyProcess;
using mps::kAnyThread;

struct StreamOutcome {
  std::vector<int> order;  // first payload byte of each delivery, in order
  Duration elapsed;
  std::uint64_t retransmits = 0;
};

/// Rank 0 streams `count` tagged messages to rank 1 across the WAN
/// backbone; the receiver records the tag order.
StreamOutcome run_stream(ClusterConfig cfg, int count) {
  Cluster c(cfg);
  c.init_ncs_hsm();
  StreamOutcome out;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < count; ++i) {
          Bytes b(1500, std::byte{0});
          b[0] = static_cast<std::byte>(i);
          node.send(0, 0, 1, b);
        }
      } else {
        for (int i = 0; i < count; ++i) {
          const Bytes m = node.recv(kAnyThread, kAnyProcess, 0);
          out.order.push_back(static_cast<int>(m[0]));
        }
      }
    });
    node.host().join(node.user_thread(t));
  });
  out.elapsed = c.engine().now() - TimePoint::origin();
  out.retransmits = c.node(0).error_control().stats().retransmits;
  return out;
}

std::vector<int> iota(int count) {
  std::vector<int> v;
  for (int i = 0; i < count; ++i) v.push_back(i);
  return v;
}

TEST(ChaosEndToEnd, BackboneOutageRecoversWithFifoOrderIntact) {
  ClusterConfig cfg = nynet_wan(2);
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
  // Kill the backbone across the whole burst of sends; error control must
  // retransmit after the link returns, and the receiver must still see the
  // messages in send order (the reorder buffer holds overtaken gaps).
  cfg.faults.link_down("sonet", TimePoint::origin() + 1_ms, 60_ms);

  const StreamOutcome faulted = run_stream(cfg, 10);
  EXPECT_EQ(faulted.order, iota(10));
  EXPECT_GT(faulted.retransmits, 0u);

  ClusterConfig clean = nynet_wan(2);
  clean.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
  const StreamOutcome baseline = run_stream(clean, 10);
  EXPECT_EQ(baseline.order, faulted.order);  // same bytes, only later
  EXPECT_LT(baseline.elapsed, faulted.elapsed);
}

TEST(ChaosEndToEnd, BlackoutWithoutErrorControlRaisesTypedException) {
  ClusterConfig cfg = nynet_wan(2);
  cfg.ncs.recv_timeout = 200_ms;  // EC=none: timeouts are the only escape
  // Down from t=0: with no error control every message is gone for good.
  cfg.faults.link_down("sonet", TimePoint::origin(), 10_sec);

  int caught = 0;
  Cluster c(cfg);
  c.init_ncs_hsm();
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < 3; ++i) node.send(0, 0, 1, Bytes(1500, std::byte{1}));
      } else {
        try {
          for (int i = 0; i < 3; ++i) (void)node.recv(kAnyThread, kAnyProcess, 0);
        } catch (const mps::NcsException& e) {
          EXPECT_EQ(e.kind(), mps::NcsExceptionKind::recv_timeout);
          ++caught;
        }
      }
    });
    node.host().join(node.user_thread(t));
  });
  EXPECT_EQ(caught, 1);  // the run *terminated* with a typed exception
  EXPECT_GE(c.ncs_exception_count(), 1u);
}

TEST(ChaosEndToEnd, FaultedRunsAreBitIdenticalAcrossRepeats) {
  ClusterConfig cfg = nynet_wan(2);
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
  cfg.faults.seed = 99;
  cfg.faults.link_burst("sonet", TimePoint::origin() + 1_ms, 80_ms,
                        {.p_good_to_bad = 0.2, .p_bad_to_good = 0.2,
                         .loss_good = 0.0, .loss_bad = 0.9});

  const StreamOutcome a = run_stream(cfg, 10);
  const StreamOutcome b = run_stream(cfg, 10);
  EXPECT_EQ(a.order, iota(10));
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

TEST(ChaosEndToEnd, SvcPortFlapAtAnyMomentOfCallSetupNeverHangsTheRun) {
  // Sweep a 2 ms outage of the callee's switch port across the first call
  // setup: before the SETUP (rejected at once), while the call is half-open
  // (answered with REJECT), and after CONNECT (released, data retransmitted).
  // Every case must retry its way to the full stream.
  for (int begin_us = 0; begin_us <= 400; begin_us += 10) {
    ClusterConfig cfg = sun_atm_lan(2);
    cfg.hsm_use_svc = true;
    cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 100_ms};
    cfg.faults.port_down("lan-switch", 1, TimePoint::origin() + Duration::microseconds(begin_us),
                         2_ms);
    EXPECT_EQ(run_stream(cfg, 3).order, iota(3)) << "outage at " << begin_us << " us";
  }
}

TEST(ChaosEndToEnd, HostPauseStallsComputeButNotTheRun) {
  ClusterConfig clean = nynet_wan(2);
  const StreamOutcome base = run_stream(clean, 5);

  ClusterConfig cfg = nynet_wan(2);
  cfg.faults.host_pause("p0", TimePoint::origin() + 2_ms, 50_ms);
  const StreamOutcome paused = run_stream(cfg, 5);

  EXPECT_EQ(paused.order, base.order);  // nothing lost, only delayed
  EXPECT_GT(paused.elapsed, base.elapsed + 30_ms);
}

}  // namespace
}  // namespace ncs::cluster
