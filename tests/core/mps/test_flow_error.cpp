// Flow-control and error-control policy tests (the QOS machinery of
// Fig 5 and the NCS_init(flow, error) selection).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/mps/error_control.hpp"
#include "core/mps/flow_control.hpp"

namespace ncs::mps {
namespace {

using namespace ncs::literals;
using cluster::Cluster;
using cluster::ClusterConfig;

// --- FlowControl unit tests -------------------------------------------------

struct FcFixture : ::testing::Test {
  FcFixture() : sched(engine, params()) {}

  static mts::SchedulerParams params() {
    mts::SchedulerParams p;
    p.context_switch_cost = Duration::zero();
    p.thread_create_cost = Duration::zero();
    return p;
  }

  Message to(int dst, std::size_t bytes = 100) {
    Message m;
    m.to_process = dst;
    m.data.resize(bytes);
    return m;
  }

  sim::Engine engine;
  mts::Scheduler sched;
};

TEST_F(FcFixture, NonePolicyNeverBlocks) {
  FlowControl fc(sched, {.kind = FlowControlKind::none});
  EXPECT_FALSE(fc.wants_acks());
  int sent = 0;
  sched.spawn([&] {
    for (int i = 0; i < 100; ++i) {
      fc.before_send(to(1));
      ++sent;
    }
  });
  engine.run();
  EXPECT_EQ(sent, 100);
  EXPECT_EQ(fc.stats().window_stalls, 0u);
}

TEST_F(FcFixture, WindowBlocksAtLimitAndAckReleases) {
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 2});
  EXPECT_TRUE(fc.wants_acks());
  std::vector<int> log;
  sched.spawn([&] {
    for (int i = 0; i < 4; ++i) {
      fc.before_send(to(1));
      log.push_back(i);
    }
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1}));  // stuck at the window

  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GE(fc.stats().window_stalls, 1u);
}

TEST_F(FcFixture, WindowIsPerDestination) {
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 1});
  std::vector<std::string> log;
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("to1");
    fc.before_send(to(2));  // different destination: not blocked
    log.push_back("to2");
    fc.before_send(to(1));  // blocked until ack from 1
    log.push_back("to1-again");
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"to1", "to2"}));
  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log.back(), "to1-again");
}

TEST_F(FcFixture, AckWakesTheWaiterForItsOwnDestination) {
  // Regression: window waiters used to sit in one global FIFO, so an ack
  // from destination 2 woke whichever sender blocked first — here the one
  // stuck on destination 1, which just re-blocked while destination 2's
  // sender slept forever.
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 1});
  std::vector<std::string> log;
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("to1-first");
    fc.before_send(to(1));  // blocks: window for 1 is full
    log.push_back("to1-second");
  });
  sched.spawn([&] {
    fc.before_send(to(2));
    log.push_back("to2-first");
    fc.before_send(to(2));  // blocks: window for 2 is full
    log.push_back("to2-second");
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"to1-first", "to2-first"}));

  fc.on_ack(2);  // must wake the destination-2 waiter, not the first blocker
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"to1-first", "to2-first", "to2-second"}));

  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log.back(), "to1-second");
  EXPECT_EQ(log.size(), 4u);
}

TEST_F(FcFixture, WindowWaitersKeepFifoSeniorityOverNewcomers) {
  // Regression: a sender dispatched between an ack and the woken waiter's
  // resumption used to see outstanding < window and barge past the queue,
  // stealing the credit; the waiter then re-queued at the BACK and lost
  // its seniority. Admission must follow arrival order per destination.
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 1});
  std::vector<std::string> log;
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("a1");
    fc.before_send(to(1));  // blocks: window full
    log.push_back("a2");
  });
  sched.spawn([&] {
    fc.before_send(to(1));  // blocks behind the first waiter
    log.push_back("b");
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1"}));

  // The ack frees one credit for the queue front; the newcomer (spawned at
  // higher priority, so dispatched before the woken waiter) must line up
  // behind the existing waiters, not steal that credit.
  fc.on_ack(1);
  sched.spawn(
      [&] {
        fc.before_send(to(1));
        log.push_back("c");
      },
      {.priority = 1});
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2"}));  // pre-fix: "c" barged here

  fc.on_ack(1);
  engine.run();
  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2", "b", "c"}));
}

TEST_F(FcFixture, DuplicateAcksDoNotSignalExtraWaiters) {
  // Regression: on_ack used to pop + wake one waiter per ack regardless of
  // how many credits were actually free, so duplicate acks handed several
  // wakeups to a single credit; the losers re-queued (recounting their
  // stall and losing their seat's seniority). A waiter now queues exactly
  // once per stall and only credit-backed acks signal.
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 1});
  std::vector<std::string> log;
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("first");
  });
  engine.run();
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("a");
  });
  sched.spawn([&] {
    fc.before_send(to(1));
    log.push_back("b");
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first"}));
  EXPECT_EQ(fc.stats().window_stalls, 2u);

  // One credit comes back but the ack is tripled (lost-ack retransmission
  // aftermath): only one waiter may be admitted.
  fc.on_ack(1);
  fc.on_ack(1);
  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "a"}));
  // Exactly one queue entry per stall: the pre-fix loop re-queued the
  // spuriously woken second waiter and counted a third stall.
  EXPECT_EQ(fc.stats().window_stalls, 2u);

  fc.on_ack(1);
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "a", "b"}));
}

TEST_F(FcFixture, RatePolicyPacesInjection) {
  // 1 MB/s: three 100 KB messages must take ~0.2s of pacing after the first.
  FlowControl fc(sched, {.kind = FlowControlKind::rate, .rate_bytes_per_sec = 1e6});
  EXPECT_FALSE(fc.wants_acks());
  TimePoint last;
  sched.spawn([&] {
    for (int i = 0; i < 3; ++i) fc.before_send(to(1, 100'000));
    last = engine.now();
  });
  engine.run();
  EXPECT_NEAR(last.sec(), 0.2, 0.01);
  EXPECT_EQ(fc.stats().rate_delays, 2u);
}

TEST_F(FcFixture, RatePolicyDoesNotBurstWhenManySendersWakeTogether) {
  // Regression: before_send slept until the injection horizon ONCE and
  // then injected unconditionally. N senders sleeping toward the same
  // horizon all woke at it and burst their messages back to back — the
  // paced rate was exceeded by a factor of N right after every stall.
  // Each sender must re-check the horizon after waking.
  FlowControl fc(sched, {.kind = FlowControlKind::rate, .rate_bytes_per_sec = 1e6});
  std::vector<double> admitted;  // seconds, one per sender
  for (int i = 0; i < 4; ++i) {
    sched.spawn([&] {
      fc.before_send(to(1, 100'000));  // 0.1 s of rate occupancy each
      admitted.push_back(engine.now().sec());
    });
  }
  engine.run();
  ASSERT_EQ(admitted.size(), 4u);
  // 1 MB/s admits one 100 KB message every 0.1 s; pre-fix the last three
  // all landed at 0.1 s.
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(admitted[static_cast<std::size_t>(i)], 0.1 * i, 0.01);
  EXPECT_EQ(fc.stats().rate_delays, 3u);
}

TEST_F(FcFixture, DuplicateAcksClampAtZero) {
  FlowControl fc(sched, {.kind = FlowControlKind::window, .window = 2});
  sched.spawn([&] { fc.before_send(to(1)); });
  engine.run();
  fc.on_ack(1);
  fc.on_ack(1);  // duplicate: must not underflow
  sched.spawn([&] {
    fc.before_send(to(1));
    fc.before_send(to(1));
  });
  engine.run();  // window still 2 deep, both admitted
  EXPECT_EQ(fc.stats().window_stalls, 0u);
}

// --- ErrorControl unit tests ------------------------------------------------

struct EcFixture : ::testing::Test {
  Message msg(int dst, std::uint32_t seq, int src = 0) {
    Message m;
    m.from_process = src;
    m.to_process = dst;
    m.seq = seq;
    m.data = to_bytes("payload");
    return m;
  }

  /// Sequence numbers accept() released, in delivery order.
  static std::vector<std::uint32_t> seqs(std::vector<Message> ready) {
    std::vector<std::uint32_t> out;
    for (const Message& m : ready) out.push_back(m.seq);
    return out;
  }

  sim::Engine engine;
  std::vector<std::uint32_t> retransmitted;
  ErrorControl* ec_ptr = nullptr;
};

TEST_F(EcFixture, NonePolicyAcceptsEverythingTwice) {
  ErrorControl ec(engine, {.kind = ErrorControlKind::none}, nullptr);
  EXPECT_FALSE(ec.wants_acks());
  EXPECT_EQ(seqs(ec.accept(msg(0, 1))), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(seqs(ec.accept(msg(0, 1))), (std::vector<std::uint32_t>{1}));  // no dedup when off
}

TEST_F(EcFixture, RetransmitsAfterRto) {
  ErrorControl ec(engine, {.kind = ErrorControlKind::retransmit, .rto = 10_ms},
                  [&](Message m) { retransmitted.push_back(m.seq); });
  ec.on_sent(msg(1, 5));
  engine.run_until(TimePoint::origin() + 9_ms);
  EXPECT_TRUE(retransmitted.empty());
  engine.run_until(TimePoint::origin() + 11_ms);
  EXPECT_EQ(retransmitted, (std::vector<std::uint32_t>{5}));
}

TEST_F(EcFixture, AckCancelsRetransmission) {
  ErrorControl ec(engine, {.kind = ErrorControlKind::retransmit, .rto = 10_ms},
                  [&](Message m) { retransmitted.push_back(m.seq); });
  ec.on_sent(msg(1, 5));
  ec.on_ack(1, 5);
  engine.run();
  EXPECT_TRUE(retransmitted.empty());
  EXPECT_TRUE(ec.idle());
}

TEST_F(EcFixture, GivesUpAfterMaxRetries) {
  ErrorControl ec(engine,
                  {.kind = ErrorControlKind::retransmit, .rto = 1_ms, .max_retries = 3},
                  [&](Message m) {
                    retransmitted.push_back(m.seq);
                    ec_ptr->on_sent(m);  // simulate the send thread resending
                  });
  ec_ptr = &ec;
  ec.on_sent(msg(1, 9));
  engine.run();
  EXPECT_EQ(retransmitted.size(), 3u);
  EXPECT_EQ(ec.stats().give_ups, 1u);
  EXPECT_TRUE(ec.idle());
}

TEST_F(EcFixture, ReceiverDeduplicates) {
  ErrorControl ec(engine, {.kind = ErrorControlKind::retransmit}, [](Message) {});
  EXPECT_EQ(ec.accept(msg(0, 0, 2)).size(), 1u);
  EXPECT_EQ(ec.accept(msg(0, 1, 2)).size(), 1u);
  EXPECT_TRUE(ec.accept(msg(0, 0, 2)).empty());  // duplicate
  EXPECT_TRUE(ec.accept(msg(0, 1, 2)).empty());
  EXPECT_EQ(ec.accept(msg(0, 2, 2)).size(), 1u);
  EXPECT_EQ(ec.stats().duplicates_dropped, 2u);
}

TEST_F(EcFixture, DedupTracksSourcesIndependently) {
  ErrorControl ec(engine, {.kind = ErrorControlKind::retransmit}, [](Message) {});
  EXPECT_EQ(ec.accept(msg(0, 0, 1)).size(), 1u);
  EXPECT_EQ(ec.accept(msg(0, 0, 2)).size(), 1u);  // same seq, different source
}

TEST_F(EcFixture, OutOfOrderArrivalsAreHeldForFifoDelivery) {
  // Regression: a retransmission overtaken by later traffic used to be
  // delivered out of order, breaking the per-source FIFO that message
  // order-sensitive applications (fft's A-then-B handshake) rely on.
  ErrorControl ec(engine, {.kind = ErrorControlKind::retransmit}, [](Message) {});
  EXPECT_TRUE(ec.accept(msg(0, 3, 1)).empty());  // gap: held, not delivered
  EXPECT_EQ(seqs(ec.accept(msg(0, 0, 1))), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(seqs(ec.accept(msg(0, 1, 1))), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(ec.accept(msg(0, 3, 1)).empty());  // duplicate of the held one
  EXPECT_EQ(seqs(ec.accept(msg(0, 2, 1))), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_TRUE(ec.accept(msg(0, 0, 1)).empty());  // below the advanced watermark
  EXPECT_EQ(ec.stats().duplicates_dropped, 2u);
  EXPECT_EQ(ec.stats().reorders, 1u);
}

// --- End-to-end: retransmission over a lossy WAN ---------------------------

TEST(ErrorControlEndToEnd, RecoversMessagesOverLossyHsmLink) {
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.wan_backbone.loss_probability = 0.1;
  cfg.ncs.error = {.kind = ErrorControlKind::retransmit, .rto = 20_ms};
  Cluster c(cfg);
  c.init_ncs_hsm();

  int received = 0;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    if (rank == 0) {
      const int t = node.t_create([&] {
        for (int i = 0; i < 20; ++i) node.send(0, 0, 1, Bytes(2000, std::byte{1}));
      });
      node.host().join(node.user_thread(t));
    } else {
      const int t = node.t_create([&] {
        for (int i = 0; i < 20; ++i) {
          (void)node.recv(kAnyThread, kAnyProcess, 0);
          ++received;
        }
      });
      node.host().join(node.user_thread(t));
    }
  });
  EXPECT_EQ(received, 20);
  EXPECT_GT(c.node(0).error_control().stats().retransmits, 0u);
}

TEST(ErrorControlEndToEnd, LossWithoutErrorControlLosesMessages) {
  // Control experiment: same lossy link, policy none -> receiver would
  // block forever, so count deliveries within a deadline instead.
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.wan_backbone.loss_probability = 0.15;
  Cluster c(cfg);
  c.init_ncs_hsm();

  int received = 0;
  for (int r = 0; r < 2; ++r) {
    c.host(r).spawn([&c, r, &received] {
      Node& node = c.node(r);
      if (r == 0) {
        for (int i = 0; i < 20; ++i) node.send(0, 0, 1, Bytes(2000, std::byte{1}));
      } else {
        for (int i = 0; i < 20; ++i) {
          (void)node.recv(kAnyThread, kAnyProcess, 0);
          ++received;
        }
      }
    }, {.name = "main"});
  }
  c.engine().run_until(TimePoint::origin() + 5_sec);
  EXPECT_LT(received, 20);
  EXPECT_GT(received, 0);
}


TEST(ErrorControlEndToEnd, GiveUpReleasesWindowCreditAndRaisesException) {
  // Regression: when error control exhausted max_retries the in-flight
  // record was erased but the flow-control window credit was never
  // returned, so a window-limited sender wedged forever on its next send
  // (and nothing told the application its message was gone). The give-up
  // path must now release the credit and surface a typed NCS exception.
  ClusterConfig cfg = cluster::nynet_wan(2);
  cfg.wan_backbone.loss_probability = 1.0;  // backbone black hole
  cfg.ncs.flow = {.kind = FlowControlKind::window, .window = 1};
  cfg.ncs.error = {.kind = ErrorControlKind::retransmit, .rto = 5_ms, .max_retries = 2};
  Cluster c(cfg);
  c.init_ncs_hsm();

  int sent = 0;
  std::vector<std::uint32_t> lost_seqs;
  c.node(0).set_exception_handler([&](Node::Exception kind, int peer, std::uint32_t seq) {
    EXPECT_EQ(kind, Node::Exception::message_timeout);
    EXPECT_EQ(peer, 1);
    lost_seqs.push_back(seq);
  });
  c.host(0).spawn([&] {
    Node& node = c.node(0);
    for (int i = 0; i < 3; ++i) {
      node.send(0, 0, 1, Bytes(2000, std::byte{1}));
      ++sent;  // with the credit leak, send #2 blocked here forever
    }
  }, {.name = "main"});
  c.engine().run_until(TimePoint::origin() + 2_sec);

  EXPECT_EQ(sent, 3);
  EXPECT_EQ(lost_seqs, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(c.node(0).error_control().stats().give_ups, 3u);
  EXPECT_TRUE(c.node(0).error_control().idle());
  EXPECT_GE(c.node(0).flow_control().stats().window_stalls, 1u);
}

TEST(ErrorControlEndToEnd, WildcardReceiveStaysPerSourceFifoUnderRetransmission) {
  // Satellite regression: wildcard Pattern matching x the per-source FIFO
  // reorder buffer. Two senders stream counted payloads over a lossy WAN;
  // retransmissions overtake later traffic on the wire, yet a wildcard
  // receiver must still observe each source's counters strictly in order
  // (sources may interleave freely).
  ClusterConfig cfg = cluster::nynet_wan(3);
  cfg.wan_backbone.loss_probability = 0.15;
  cfg.ncs.error = {.kind = ErrorControlKind::retransmit, .rto = 15_ms, .max_retries = 40};
  Cluster c(cfg);
  c.init_ncs_hsm();

  constexpr int kPerSender = 25;
  std::vector<std::vector<std::uint32_t>> seen(3);
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < 2 * kPerSender; ++i) {
          int src = -1;
          const Bytes payload = node.recv(kAnyThread, kAnyProcess, 0, nullptr, &src);
          ASSERT_EQ(payload.size(), 260u);
          std::uint32_t counter = 0;
          for (std::size_t b = 0; b < 4; ++b)
            counter = counter << 8 | static_cast<std::uint32_t>(payload[b]);
          ASSERT_TRUE(src == 1 || src == 2);
          seen[static_cast<std::size_t>(src)].push_back(counter);
        }
      } else {
        for (std::uint32_t i = 0; i < kPerSender; ++i) {
          Bytes payload(260, std::byte{static_cast<unsigned char>(rank)});
          for (int b = 0; b < 4; ++b)
            payload[static_cast<std::size_t>(b)] =
                static_cast<std::byte>(i >> (24 - 8 * b) & 0xFF);
          node.send(0, 0, 0, payload);
        }
      }
    });
    node.host().join(node.user_thread(t));
  });

  for (int src = 1; src <= 2; ++src) {
    ASSERT_EQ(seen[static_cast<std::size_t>(src)].size(),
              static_cast<std::size_t>(kPerSender));
    for (std::uint32_t i = 0; i < kPerSender; ++i)
      EXPECT_EQ(seen[static_cast<std::size_t>(src)][i], i)
          << "source p" << src << " delivered out of order at index " << i;
  }
  EXPECT_GT(c.node(1).error_control().stats().retransmits +
                c.node(2).error_control().stats().retransmits,
            0u);
}

TEST(ErrorControlEndToEnd, RetransmitRecoversCellCorruption) {
  // Fault injection at the lowest layer: damaged cells are rejected by the
  // receiving adapter's AAL5 CRC (real cells, detailed mode), and the NCS
  // error-control thread retransmits until everything lands.
  ClusterConfig cfg = cluster::sun_atm_lan(2);
  cfg.nic.detailed_cells = true;
  cfg.nic.cell_corrupt_probability = 0.002;
  cfg.ncs.error = {.kind = ErrorControlKind::retransmit, .rto = 10_ms, .max_retries = 40};
  Cluster c(cfg);
  c.init_ncs_hsm();

  int received = 0;
  c.run([&](int rank) {
    Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < 15; ++i) node.send(0, 0, 1, Bytes(8000, std::byte{1}));
      } else {
        for (int i = 0; i < 15; ++i) {
          const Bytes msg = node.recv(kAnyThread, kAnyProcess, 0);
          EXPECT_EQ(msg.size(), 8000u);
          ++received;
        }
      }
    });
    node.host().join(node.user_thread(t));
  });
  EXPECT_EQ(received, 15);
  EXPECT_GT(c.node(0).error_control().stats().retransmits, 0u);
}

}  // namespace
}  // namespace ncs::mps
