// Point-to-point protocol engine (mps/proto.*): eager coalescing,
// rendezvous RTS/CTS + chunked bulk transfer, adaptive crossover, and the
// interaction with flow/error control over faulty networks.
#include "core/mps/proto.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/crc.hpp"
#include "core/mps/node.hpp"

namespace ncs::mps {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using namespace ncs::literals;

Bytes patterned(std::size_t n, std::uint32_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>((i * 131 + salt * 29) & 0xFF);
  return b;
}

TEST(ProtoEngine, OffByDefaultKeepsLegacyPath) {
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  Cluster c(cfg);
  c.init_ncs_hsm();
  EXPECT_FALSE(c.node(0).proto().enabled());

  Bytes got;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        node.send(0, 0, 1, patterned(512, 7));
      } else {
        got = node.recv(kAnyThread, kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });
  EXPECT_EQ(got, patterned(512, 7));
  EXPECT_EQ(c.node(0).proto().stats().eager_frames, 0u);
  EXPECT_EQ(c.node(0).proto().stats().rndv_transfers, 0u);
}

TEST(ProtoEngine, EagerCoalescesConcurrentSmallSends) {
  // Several sender threads queue small messages while the send thread sits
  // in a flow-control window stall (on this single-CPU model that stall is
  // what lets the queue accumulate — the WAN's multi-ms ack round trip
  // dwarfs the per-message host cost), so batches form; the receiver must
  // still see every payload, in per-(source-thread) FIFO order, and the
  // frame count must come in well under the message count.
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.ncs.flow = {.kind = FlowControlKind::window, .window = 1};
  cfg.ncs.proto.mode = ProtoMode::eager;
  Cluster c(cfg);
  c.init_ncs_hsm();

  constexpr int kThreads = 4;
  constexpr std::uint32_t kEach = 12;
  std::vector<std::vector<std::uint32_t>> per_thread(kThreads);
  c.run([&](int rank) {
    Node& node = c.node(rank);
    if (rank == 0) {
      std::vector<int> tids;
      for (int s = 0; s < kThreads; ++s) {
        tids.push_back(node.t_create([&node, s] {
          for (std::uint32_t i = 0; i < kEach; ++i) {
            Bytes payload(64, std::byte{0});
            payload[0] = static_cast<std::byte>(i >> 8);
            payload[1] = static_cast<std::byte>(i & 0xFF);
            node.send(s, 0, 1, payload);
          }
        }));
      }
      for (const int t : tids) node.host().join(node.user_thread(t));
    } else {
      const int t = node.t_create([&] {
        for (int i = 0; i < kThreads * static_cast<int>(kEach); ++i) {
          int src_thread = -1;
          const Bytes payload =
              node.recv(kAnyThread, kAnyProcess, 0, &src_thread, nullptr);
          ASSERT_EQ(payload.size(), 64u);
          ASSERT_GE(src_thread, 0);
          ASSERT_LT(src_thread, kThreads);
          per_thread[static_cast<std::size_t>(src_thread)].push_back(
              static_cast<std::uint32_t>(payload[0]) << 8 |
              static_cast<std::uint32_t>(payload[1]));
        }
      });
      node.host().join(node.user_thread(t));
    }
  });

  for (int s = 0; s < kThreads; ++s) {
    ASSERT_EQ(per_thread[static_cast<std::size_t>(s)].size(), kEach);
    for (std::uint32_t i = 0; i < kEach; ++i)
      EXPECT_EQ(per_thread[static_cast<std::size_t>(s)][i], i)
          << "thread " << s << " message " << i;
  }
  const ProtoEngine::Stats& st = c.node(0).proto().stats();
  EXPECT_EQ(st.eager_msgs, static_cast<std::uint64_t>(kThreads) * kEach);
  EXPECT_GT(st.eager_frames, 0u);
  EXPECT_LT(st.eager_frames, st.eager_msgs) << "no coalescing happened";
}

TEST(ProtoEngine, RendezvousDeliversLargeMessageIntact) {
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.ncs.proto.mode = ProtoMode::rendezvous;
  Cluster c(cfg);
  c.init_ncs_hsm();

  const Bytes sent = patterned(200 * 1024, 3);
  Bytes got;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        node.send(0, 0, 1, sent);
      } else {
        got = node.recv(kAnyThread, kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });
  EXPECT_EQ(got.size(), sent.size());
  EXPECT_EQ(crc32_ieee(got), crc32_ieee(sent));

  const ProtoEngine::Stats& tx = c.node(0).proto().stats();
  const ProtoEngine::Stats& rx = c.node(1).proto().stats();
  EXPECT_EQ(tx.rndv_transfers, 1u);
  EXPECT_GT(tx.rndv_chunks, 1u) << "payload should span several DMA windows";
  EXPECT_EQ(rx.rndv_completed, 1u);
  EXPECT_EQ(rx.rndv_failed, 0u);
}

TEST(ProtoEngine, AdaptiveKeepsMixedSizesInFifoOrder) {
  // One sender thread alternates payloads straddling the crossover; the
  // ordered-flush rule (eager batch flushed before any rendezvous to the
  // same destination) must preserve program order end to end.
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.ncs.proto.mode = ProtoMode::adaptive;
  cfg.ncs.proto.eager_max_bytes = 4096;  // pin the crossover for the test
  Cluster c(cfg);
  c.init_ncs_hsm();

  constexpr int kRounds = 6;
  std::vector<std::size_t> sizes;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < kRounds; ++i) {
          node.send(0, 0, 1, patterned(96, static_cast<std::uint32_t>(i)));
          node.send(0, 0, 1, patterned(32 * 1024, static_cast<std::uint32_t>(i)));
        }
      } else {
        for (int i = 0; i < 2 * kRounds; ++i)
          sizes.push_back(node.recv(kAnyThread, kAnyProcess, 0).size());
      }
    });
    node.host().join(node.user_thread(t));
  });

  ASSERT_EQ(sizes.size(), 2u * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(sizes[2 * static_cast<std::size_t>(i)], 96u) << "round " << i;
    EXPECT_EQ(sizes[2 * static_cast<std::size_t>(i) + 1], 32u * 1024u)
        << "round " << i;
  }
  const ProtoEngine::Stats& st = c.node(0).proto().stats();
  EXPECT_EQ(st.eager_msgs, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(st.rndv_transfers, static_cast<std::uint64_t>(kRounds));
  EXPECT_GT(st.flush_ordered + st.flush_idle + st.flush_timeout + st.flush_full,
            0u);
}

TEST(ProtoEngine, FlushTimerDrainsLoneBatch) {
  // With idle-flush disabled, a lone small send sits in its batch until
  // the flush timer fires — it must still arrive, attributed to the
  // timeout flush reason.
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.ncs.proto.mode = ProtoMode::eager;
  cfg.ncs.proto.flush_on_idle = false;
  cfg.ncs.proto.flush_timeout = 200_us;
  Cluster c(cfg);
  c.init_ncs_hsm();

  Bytes got;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        node.send(0, 0, 1, patterned(48, 9));
      } else {
        got = node.recv(kAnyThread, kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });
  EXPECT_EQ(got, patterned(48, 9));
  EXPECT_EQ(c.node(0).proto().stats().flush_timeout, 1u);
  EXPECT_EQ(c.node(0).proto().stats().flush_idle, 0u);
}

TEST(ProtoEngine, CtsTimeoutGivesUpInsteadOfWedging) {
  // Black-hole WAN: the RTS can never be answered. The sender must abandon
  // the transfer after the retry limit, return its window credit, raise
  // message_timeout through the exception handler, and let the program
  // terminate instead of wedging the send thread forever.
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.wan_backbone.loss_probability = 1.0;
  cfg.ncs.flow = {.kind = FlowControlKind::window, .window = 2};
  cfg.ncs.proto.mode = ProtoMode::rendezvous;
  cfg.ncs.proto.cts_timeout = 5_ms;
  cfg.ncs.proto.cts_retry_limit = 2;
  Cluster c(cfg);
  c.init_ncs_hsm();

  std::vector<std::pair<NcsExceptionKind, int>> raised;
  c.node(0).set_exception_handler(
      [&](NcsExceptionKind kind, int peer, std::uint32_t) {
        raised.emplace_back(kind, peer);
      });

  bool send_returned = false;
  c.host(0).spawn(
      [&] {
        Node& node = c.node(0);
        const int t = node.t_create([&] {
          node.send(0, 0, 1, patterned(64 * 1024, 1));
          send_returned = true;
        });
        node.host().join(node.user_thread(t));
      },
      {.name = "main"});
  c.engine().run_until(TimePoint::origin() + 2_sec);

  EXPECT_TRUE(send_returned) << "sender wedged on an unanswerable RTS";
  const ProtoEngine::Stats& st = c.node(0).proto().stats();
  EXPECT_EQ(st.rndv_give_ups, 1u);
  EXPECT_EQ(st.rts_resends, 2u);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].first, NcsExceptionKind::message_timeout);
  EXPECT_EQ(raised[0].second, 1);
  // The abandoned transfer's credit came back: the window is empty again.
  EXPECT_EQ(c.node(0).flow_control().outstanding(1), 0);
}

TEST(ProtoEngine, LossyWanDigestsBitIdentical) {
  // Chaos acceptance: adaptive protocol over a lossy WAN with retransmit
  // error control. Every payload — coalesced eager records and reassembled
  // rendezvous transfers alike — must arrive bit-identical (CRC32 per
  // message), with per-source FIFO order intact.
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.wan_backbone.loss_probability = 0.08;
  cfg.ncs.error = {.kind = ErrorControlKind::retransmit, .rto = 15_ms, .max_retries = 40};
  cfg.ncs.proto.mode = ProtoMode::adaptive;
  cfg.ncs.proto.eager_max_bytes = 2048;
  Cluster c(cfg);
  c.init_ncs_hsm();

  constexpr std::uint32_t kMsgs = 24;
  std::vector<std::uint32_t> want_crc, got_crc;
  for (std::uint32_t i = 0; i < kMsgs; ++i) {
    const std::size_t n = i % 3 == 2 ? 24 * 1024 : 128;
    want_crc.push_back(crc32_ieee(patterned(n, i)));
  }

  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (std::uint32_t i = 0; i < kMsgs; ++i) {
          const std::size_t n = i % 3 == 2 ? 24 * 1024 : 128;
          node.send(0, 0, 1, patterned(n, i));
        }
      } else {
        for (std::uint32_t i = 0; i < kMsgs; ++i)
          got_crc.push_back(crc32_ieee(node.recv(kAnyThread, kAnyProcess, 0)));
      }
    });
    node.host().join(node.user_thread(t));
  });

  EXPECT_EQ(got_crc, want_crc);
  const ProtoEngine::Stats& tx = c.node(0).proto().stats();
  EXPECT_EQ(tx.rndv_transfers, static_cast<std::uint64_t>(kMsgs / 3));
  EXPECT_GT(c.node(0).error_control().stats().retransmits +
                tx.rts_resends,
            0u);
}

/// Transport that only records what it was handed.
class RecordingTransport : public Transport {
 public:
  void submit(const Message& msg) override { submitted.push_back(msg.to_process); }
  Message recv_next() override { return {}; }
  const char* name() const override { return "recording"; }
  std::vector<int> submitted;
};

TEST(ProtoEngine, FlushAllGoesInAscendingDestinationOrder) {
  // Pending batches opened toward 5, 2 and 7 (in that order) flush as 2, 5,
  // 7: flush_all walks only the destinations with pending batches, yet in
  // the order a scan over every rank would.
  sim::Engine engine;
  mts::SchedulerParams sp;
  mts::Scheduler host(engine, sp);
  RecordingTransport transport;
  FlowControl fc(host, {});
  ErrorControl ec(engine, {}, [](Message) {});
  ProtoParams params;
  params.mode = ProtoMode::eager;
  ProtoEngine proto(host, transport, fc, ec, params, /*rank=*/0, /*copy_cycles_per_byte=*/0,
                    /*fixed_cycles=*/0,
                    ProtoEngine::Hooks{.submit = [&](const Message& m) { transport.submit(m); }});
  EXPECT_EQ(proto.peer_records(), 0u);
  host.spawn([&] {
    for (int dst : {5, 2, 7}) proto.eager_enqueue(Message{0, 0, dst, 0, 0, patterned(16, 1)});
    EXPECT_TRUE(proto.has_pending());
    proto.flush_all(ProtoEngine::FlushReason::idle);
    EXPECT_FALSE(proto.has_pending());
  });
  engine.run();
  EXPECT_EQ(transport.submitted, (std::vector<int>{2, 5, 7}));
  EXPECT_EQ(proto.peer_records(), 3u);
  EXPECT_EQ(proto.stats().flush_idle, 3u);
}

TEST(ProtoEngine, AutomaticCrossoverIsSaneForHsm) {
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.ncs.proto.mode = ProtoMode::adaptive;
  Cluster c(cfg);
  c.init_ncs_hsm();
  const std::size_t crossover = c.node(0).proto().crossover_bytes();
  EXPECT_GE(crossover, 1024u);
  EXPECT_LE(crossover, 256u * 1024u);
  EXPECT_FALSE(c.node(0).proto().use_rendezvous(64));
  EXPECT_TRUE(c.node(0).proto().use_rendezvous(crossover + 1));
}

}  // namespace
}  // namespace ncs::mps
