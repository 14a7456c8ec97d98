#include "atm/nic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct Loopback : CellSink {
  explicit Loopback(Nic& nic) : nic_(nic) {}
  void accept(int port, Burst burst) override { nic_.accept(port, std::move(burst)); }
  Nic& nic_;
};

struct NicFixture : ::testing::Test {
  NicFixture() { reset(NicParams{}); }

  void reset(NicParams p) {
    rx.clear();
    nic = std::make_unique<Nic>(engine, p);
    link = std::make_unique<net::Link>(engine, link_params());
    loop = std::make_unique<Loopback>(*nic);
    nic->attach(*link, *loop, 0);
    nic->set_rx_handler([this](VcId vc, Bytes data, bool eom) {
      rx.push_back({vc, std::move(data), eom, engine.now()});
    });
  }

  static net::LinkParams link_params() {
    net::LinkParams p;
    p.bandwidth_bps = bw::taxi_140;
    p.propagation = 2_us;
    return p;
  }

  Bytes payload(std::size_t n) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i);
    return b;
  }

  struct Rx {
    VcId vc;
    Bytes data;
    bool eom;
    TimePoint at;
  };

  sim::Engine engine;
  std::unique_ptr<Nic> nic;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<Loopback> loop;
  std::vector<Rx> rx;
};

TEST_F(NicFixture, ChunkLoopsBackIntact) {
  const Bytes data = payload(1000);
  nic->submit_tx(VcId{0, 70}, data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, data);
  EXPECT_EQ(rx[0].vc, (VcId{0, 70}));
  EXPECT_TRUE(rx[0].eom);
}

TEST_F(NicFixture, DetailedModeMatchesBurstModePayloadAndTiming) {
  const Bytes data = payload(3000);

  nic->submit_tx(VcId{0, 70}, data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  const TimePoint burst_time = rx[0].at - TimePoint::origin() + TimePoint::origin();
  const Bytes burst_data = rx[0].data;

  NicParams p;
  p.detailed_cells = true;
  // fresh engine time continues; measure delta instead.
  reset(p);
  const TimePoint t0 = engine.now();
  nic->submit_tx(VcId{0, 70}, data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, burst_data);
  EXPECT_EQ((rx[0].at - t0).ps(), (burst_time - TimePoint::origin()).ps());
}

TEST_F(NicFixture, VcRangeHandlersTakeOnlyTheirRanges) {
  // The RMA engine's shape: its plane minus the rank's own VCI (103),
  // which stays with the default handler, as does every other VPI.
  std::vector<VcId> ranged;
  const auto on_range = [&](VcId vc, Bytes, bool) { ranged.push_back(vc); };
  nic->add_vc_range_handler(100, 103, on_range);
  nic->add_vc_range_handler(104, 106, on_range);
  for (const VcId vc : {VcId{0, 101}, VcId{0, 103}, VcId{0, 105}, VcId{0, 106}, VcId{1, 101}}) {
    nic->submit_tx(vc, payload(64), true);
    engine.run();
  }
  EXPECT_EQ(ranged, (std::vector<VcId>{{0, 101}, {0, 105}}));
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[0].vc, (VcId{0, 103}));
  EXPECT_EQ(rx[1].vc, (VcId{0, 106}));
  EXPECT_EQ(rx[2].vc, (VcId{1, 101}));
}

TEST_F(NicFixture, TxBufferBackpressure) {
  NicParams p;
  p.tx_buffers = 2;
  reset(p);
  EXPECT_TRUE(nic->tx_buffer_available());
  nic->submit_tx(VcId{0, 70}, payload(4096), false);
  EXPECT_TRUE(nic->tx_buffer_available());
  nic->submit_tx(VcId{0, 70}, payload(4096), false);
  EXPECT_FALSE(nic->tx_buffer_available());

  bool notified = false;
  nic->notify_tx_buffer([&] { notified = true; });
  EXPECT_FALSE(notified);
  engine.run();
  EXPECT_TRUE(notified);
  EXPECT_TRUE(nic->tx_buffer_available());
}

TEST_F(NicFixture, NotifyFiresImmediatelyWhenBufferFree) {
  bool notified = false;
  nic->notify_tx_buffer([&] { notified = true; });
  engine.run();
  EXPECT_TRUE(notified);
}

TEST_F(NicFixture, PipelinedChunksBeatSerialTime) {
  // With 4 buffers, 8 chunks should take well under 8x one chunk's full
  // pipeline (copy overlap happens at the host; here DMA/SAR/wire stages
  // overlap across chunks).
  NicParams p;
  p.tx_buffers = 4;
  reset(p);
  const int chunks = 8;
  int submitted = 0;
  std::function<void()> pump = [&] {
    while (submitted < chunks && nic->tx_buffer_available()) {
      nic->submit_tx(VcId{0, 70}, payload(4096), submitted == chunks - 1);
      ++submitted;
    }
    if (submitted < chunks) nic->notify_tx_buffer(pump);
  };
  pump();
  engine.run();
  ASSERT_EQ(rx.size(), static_cast<std::size_t>(chunks));

  const Duration total = rx.back().at - TimePoint::origin();
  const Duration serial = nic->tx_stage_time(4096) * chunks;
  EXPECT_LT(total.sec(), serial.sec());
}

TEST_F(NicFixture, EomFlagCarriedPerChunk) {
  nic->submit_tx(VcId{0, 70}, payload(100), false);
  nic->submit_tx(VcId{0, 70}, payload(100), true);
  engine.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_FALSE(rx[0].eom);
  EXPECT_TRUE(rx[1].eom);
}

TEST_F(NicFixture, StatsCountChunksAndCells) {
  nic->submit_tx(VcId{0, 70}, payload(1000), true);
  engine.run();
  EXPECT_EQ(nic->stats().tx_chunks, 1u);
  EXPECT_EQ(nic->stats().tx_cells, aal5::cell_count(1000));
  EXPECT_EQ(nic->stats().rx_chunks, 1u);
}

TEST_F(NicFixture, OversizedChunkAborts) {
  NicParams p;
  p.io_buffer_size = 512;
  reset(p);
  EXPECT_DEATH(nic->submit_tx(VcId{0, 70}, payload(513), true), "exceeds");
}

TEST_F(NicFixture, SubmitWithoutFreeBufferAborts) {
  NicParams p;
  p.tx_buffers = 1;
  reset(p);
  nic->submit_tx(VcId{0, 70}, payload(100), true);
  EXPECT_DEATH(nic->submit_tx(VcId{0, 70}, payload(100), true), "no free buffer");
}


TEST_F(NicFixture, CellCorruptionCaughtByAal5Crc) {
  NicParams p;
  p.detailed_cells = true;
  p.cell_corrupt_probability = 1.0;  // every cell damaged
  reset(p);
  nic->submit_tx(VcId{0, 70}, payload(1000), true);
  engine.run();
  EXPECT_TRUE(rx.empty());  // nothing delivered
  EXPECT_EQ(nic->stats().rx_errors, 1u);
}

TEST_F(NicFixture, PartialCorruptionLosesSomeChunks) {
  NicParams p;
  p.detailed_cells = true;
  p.cell_corrupt_probability = 0.05;
  reset(p);
  const int chunks = 40;
  int submitted = 0;
  std::function<void()> pump = [&] {
    while (submitted < chunks && nic->tx_buffer_available()) {
      nic->submit_tx(VcId{0, 70}, payload(4000), true);
      ++submitted;
    }
    if (submitted < chunks) nic->notify_tx_buffer(pump);
  };
  pump();
  engine.run();
  // ~85 cells per chunk at 5%: most chunks lose a cell and are rejected;
  // what does arrive is intact.
  EXPECT_LT(rx.size(), static_cast<std::size_t>(chunks));
  EXPECT_EQ(rx.size() + nic->stats().rx_errors, static_cast<std::size_t>(chunks));
  for (const auto& r : rx) EXPECT_EQ(r.data, payload(4000));
}

TEST_F(NicFixture, CorruptionWorksInBurstModeToo) {
  // Burst mode has no per-cell wire representation, so a corrupted cell is
  // modelled as a damaged burst: the receiver's AAL5 CRC check rejects the
  // whole chunk, exactly as in detailed mode.
  NicParams p;
  p.cell_corrupt_probability = 1.0;
  reset(p);
  nic->submit_tx(VcId{0, 70}, payload(1000), true);
  engine.run();
  EXPECT_TRUE(rx.empty());
  EXPECT_EQ(nic->stats().rx_errors, 1u);
  EXPECT_GT(nic->fault().stats().corrupted_cells, 0u);
}


TEST_F(NicFixture, Aal34CarriesFewerBytesPerCell) {
  NicParams p5;
  NicParams p34;
  p34.adaptation = Adaptation::aal34;

  reset(p34);
  nic->submit_tx(VcId{0, 70}, payload(4000), true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, payload(4000));
  const auto cells34 = nic->stats().tx_cells;

  reset(p5);
  nic->submit_tx(VcId{0, 70}, payload(4000), true);
  engine.run();
  const auto cells5 = nic->stats().tx_cells;

  // 44 vs 48 useful bytes per cell (~9% more cells for AAL3/4).
  EXPECT_GT(cells34, cells5);
  EXPECT_NEAR(static_cast<double>(cells34) / static_cast<double>(cells5), 48.0 / 44.0, 0.03);
}

TEST_F(NicFixture, Aal34DetailedModeMatchesBurstTiming) {
  const Bytes data = payload(3000);
  NicParams burst_mode;
  burst_mode.adaptation = Adaptation::aal34;
  reset(burst_mode);
  nic->submit_tx(VcId{0, 70}, data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  const Duration burst_elapsed = rx[0].at - TimePoint::origin();

  NicParams detailed;
  detailed.adaptation = Adaptation::aal34;
  detailed.detailed_cells = true;
  reset(detailed);
  const TimePoint t0 = engine.now();
  nic->submit_tx(VcId{0, 70}, data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, data);
  EXPECT_EQ((rx[0].at - t0).ps(), burst_elapsed.ps());
}

}  // namespace
}  // namespace ncs::atm
