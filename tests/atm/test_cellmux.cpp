#include "atm/cellmux.hpp"

#include "atm/aal5.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/units.hpp"

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct Arrival {
  VcId vc;
  std::size_t bytes;
  TimePoint at;
};

struct Recorder : CellSink {
  explicit Recorder(sim::Engine& engine) : engine_(engine) {}
  void accept(int, Burst burst) override {
    arrivals.push_back({burst.vc, burst.payload.size(), engine_.now()});
  }
  sim::Engine& engine_;
  std::vector<Arrival> arrivals;
};

struct MuxFixture : ::testing::Test {
  MuxFixture()
      : link(engine, {.bandwidth_bps = bw::taxi_140, .propagation = 2_us}),
        sink(engine),
        mux(link, sink, 0) {}

  Burst burst_of(std::uint16_t vci, std::size_t payload_bytes) {
    Burst b;
    b.vc = VcId{0, vci};
    b.payload.assign(payload_bytes, std::byte{static_cast<unsigned char>(vci)});
    b.n_cells = static_cast<std::uint32_t>(aal5::cell_count(payload_bytes));
    return b;
  }

  sim::Engine engine;
  net::Link link;
  Recorder sink;
  CellMux mux;
};

TEST_F(MuxFixture, SingleBurstDeliversIntact) {
  mux.submit(burst_of(100, 5000));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].bytes, 5000u);
  EXPECT_EQ(mux.stats().cells_sent, aal5::cell_count(5000));
}

TEST_F(MuxFixture, SingleFlowTimingMatchesBurstTransmission) {
  // One uncontended flow: per-cell scheduling must not change the timing
  // (same bytes, same wire).
  mux.submit(burst_of(100, 9000));
  engine.run();
  const Duration per_cell = link.tx_time(Cell::kSize);
  const auto cells = static_cast<std::int64_t>(aal5::cell_count(9000));
  EXPECT_EQ(sink.arrivals[0].at.ps(),
            (TimePoint::origin() + per_cell * cells + 2_us).ps());
}

TEST_F(MuxFixture, SmallBurstCutsThroughBulkWhenInterleaved) {
  mux.submit(burst_of(1, 512 * 1024));  // bulk: ~11k cells
  mux.submit(burst_of(2, 2048));        // urgent: 43 cells
  engine.run();

  ASSERT_EQ(sink.arrivals.size(), 2u);
  // The small burst finishes first by a wide margin: it needs ~2x43 cell
  // times (round-robin), not the bulk's ~11k.
  const Arrival& small = *std::find_if(sink.arrivals.begin(), sink.arrivals.end(),
                                       [](const Arrival& a) { return a.vc.vci == 2; });
  const Arrival& bulk = *std::find_if(sink.arrivals.begin(), sink.arrivals.end(),
                                      [](const Arrival& a) { return a.vc.vci == 1; });
  EXPECT_LT(small.at, bulk.at);
  EXPECT_LT(small.at.sec(), bulk.at.sec() / 50);
}

TEST_F(MuxFixture, FifoModeSuffersHeadOfLineBlocking) {
  mux.set_interleave(false);
  mux.submit(burst_of(1, 512 * 1024));
  mux.submit(burst_of(2, 2048));
  engine.run();

  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].vc.vci, 1);  // bulk completes first
  // The small burst waited for the entire bulk transfer.
  EXPECT_GT(sink.arrivals[1].at.sec(), sink.arrivals[0].at.sec() * 0.99);
}

TEST_F(MuxFixture, InterleavingPreservesTotalThroughput) {
  // Fairness must not cost capacity: the time to drain both flows equals
  // the serialized wire time of all cells (plus propagation).
  const std::size_t a_bytes = 100'000, b_bytes = 60'000;
  mux.submit(burst_of(1, a_bytes));
  mux.submit(burst_of(2, b_bytes));
  engine.run();
  const auto total_cells =
      static_cast<std::int64_t>(aal5::cell_count(a_bytes) + aal5::cell_count(b_bytes));
  const TimePoint expected = TimePoint::origin() + link.tx_time(Cell::kSize) * total_cells + 2_us;
  const TimePoint last = std::max(sink.arrivals[0].at, sink.arrivals[1].at);
  EXPECT_EQ(last.ps(), expected.ps());
}

TEST_F(MuxFixture, PerVcOrderPreservedAcrossBursts) {
  for (int i = 1; i <= 3; ++i)
    mux.submit(burst_of(7, static_cast<std::size_t>(i) * 1000));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].bytes, 1000u);
  EXPECT_EQ(sink.arrivals[1].bytes, 2000u);
  EXPECT_EQ(sink.arrivals[2].bytes, 3000u);
}

TEST_F(MuxFixture, DrainedFlowsLeaveTheRoundRobinRing) {
  // Regression: flows used to stay in rr_order_ forever once seen, so an
  // SVC-churn workload (every transfer on a fresh VC) grew the ring — and
  // the O(n) membership scan on submit — without bound.
  for (std::uint16_t vci = 100; vci < 200; ++vci) {
    mux.submit(burst_of(vci, 2048));
    engine.run();  // drain completely before the next "connection"
  }
  ASSERT_EQ(sink.arrivals.size(), 100u);
  EXPECT_EQ(mux.flow_count(), 0u);
  EXPECT_LE(mux.rr_ring_size(), 1u);  // at most the slot being swept
}

TEST_F(MuxFixture, ReusedVcAfterDrainStillRoundRobins) {
  // A VC that drained out of the ring must re-enter it cleanly and still
  // share the wire fairly with a concurrent flow.
  mux.submit(burst_of(5, 4096));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);

  mux.submit(burst_of(5, 48 * 200));
  mux.submit(burst_of(6, 48 * 200));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  const double t1 = sink.arrivals[1].at.sec();
  const double t2 = sink.arrivals[2].at.sec();
  EXPECT_LT(std::abs(t2 - t1) / std::max(t1, t2), 0.02);
  EXPECT_EQ(mux.flow_count(), 0u);
}

TEST_F(MuxFixture, ThreeWayFairness) {
  // Three equal flows: all finish within one another's cell budget.
  for (const int v : {10, 11, 12}) mux.submit(burst_of(static_cast<std::uint16_t>(v), 48 * 100));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  const double t0 = sink.arrivals[0].at.sec();
  const double t2 = sink.arrivals[2].at.sec();
  EXPECT_LT((t2 - t0) / t2, 0.02);
}

}  // namespace
}  // namespace ncs::atm
