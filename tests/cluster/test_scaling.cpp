// Host memory follows the pairs that talk: per-peer protocol state is
// created on first contact, so a large cluster pays only for the pairs its
// traffic pattern uses. These counts are exact and deterministic, unlike
// an RSS reading.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "atm/network.hpp"
#include "cluster/cluster.hpp"
#include "rma/engine.hpp"

namespace ncs::cluster {
namespace {

constexpr int kP = 256;

ClusterConfig ring_config() {
  ClusterConfig cfg = nynet_wan_multi(kP, 8);
  for (int i = 0; i < kP; ++i) {
    cfg.wan_provision.emplace_back(i, (i + 1) % kP);
    cfg.wan_provision.emplace_back((i + 1) % kP, i);
  }
  cfg.rma_enabled = true;
  cfg.ncs.flow = {.kind = mps::FlowControlKind::window, .window = 2};
  cfg.ncs.proto.mode = mps::ProtoMode::eager;
  return cfg;
}

TEST(ClusterScaling, PerPeerStateIsCreatedOnFirstContact) {
  Cluster c(ring_config());
  c.init_ncs_hsm();
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(c.rma(r).peer_records(), 0u) << r;
    EXPECT_EQ(c.node(r).proto().peer_records(), 0u) << r;
    EXPECT_EQ(c.node(r).flow_control().peer_records(), 0u) << r;
    EXPECT_EQ(c.node(r).peer_records(), 0u) << r;
    c.rma(r).create_window(0, 8);
  }

  // Each rank sends to its right neighbour and adds its rank into the
  // right neighbour's window; it hears from its left neighbour only.
  constexpr int kMsgs = 4;
  std::vector<int> received(kP, 0);
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int right = (rank + 1) % kP;
    const int t = node.t_create([&, rank, right] {
      c.rma(rank).fetch_add(right, 0, 0, static_cast<std::uint64_t>(rank));
      for (int m = 0; m < kMsgs; ++m) node.send(0, 0, right, Bytes(100));
      for (int m = 0; m < kMsgs; ++m) {
        node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
        ++received[static_cast<std::size_t>(rank)];
      }
      c.rma(rank).fence();
    });
    node.host().join(node.user_thread(t));
  });

  for (int r = 0; r < kP; ++r) {
    const int left = (r + kP - 1) % kP;
    EXPECT_EQ(received[static_cast<std::size_t>(r)], kMsgs) << r;
    EXPECT_EQ(c.rma(r).window(0)->load_u64(0), static_cast<std::uint64_t>(left)) << r;
    // RMA: initiator toward the right, target for the left. Messaging
    // state exists toward the right only: acks from it create none.
    EXPECT_EQ(c.rma(r).peer_records(), 2u) << r;
    EXPECT_EQ(c.node(r).proto().peer_records(), 1u) << r;
    EXPECT_EQ(c.node(r).flow_control().peer_records(), 1u) << r;
    EXPECT_EQ(c.node(r).peer_records(), 1u) << r;
    EXPECT_EQ(c.rma(r).credits_in_use(), 0) << r;
    EXPECT_EQ(c.node(r).flow_control().total_outstanding(), 0) << r;
  }
}

TEST(ClusterScalingDeathTest, NicOffloadPastTheCollectivePlaneIsRefused) {
  // Rank 2000's collective label would be VCI 40000, the RMA plane's base.
  static_assert(atm::kRmaVciBase - atm::kCollVciBase == 2000);
  ClusterConfig cfg = nynet_wan_multi(2001, 8);
  cfg.ncs.coll.nic_offload = true;
  EXPECT_DEATH({ Cluster c(cfg); }, "collective PVC plane.*RMA plane");
}

}  // namespace
}  // namespace ncs::cluster
