// Ablation: why ATM cells? Per-cell round-robin multiplexing vs
// frame-at-once FIFO on one 140 Mbps TAXI link: a VOD frame's delivery
// latency while a bulk transfer shares the wire.
#include <cstdio>

#include "atm/cellmux.hpp"

#include "atm/aal5.hpp"
#include "cluster/bench_json.hpp"
#include "common/units.hpp"

using namespace ncs;
using namespace ncs::atm;

namespace {

struct LatencyProbe : CellSink {
  explicit LatencyProbe(sim::Engine& engine) : engine_(engine) {}
  void accept(int, Burst burst) override {
    if (burst.vc.vci == 2) frame_done = engine_.now();
    if (burst.vc.vci == 1) bulk_done = engine_.now();
  }
  sim::Engine& engine_;
  TimePoint frame_done, bulk_done;
};

struct Measurement {
  double frame_ms;
  double bulk_ms;
};

Measurement measure(bool interleave, std::size_t bulk_bytes, std::size_t frame_bytes) {
  sim::Engine engine;
  net::Link link(engine, {.bandwidth_bps = bw::taxi_140,
                          .propagation = Duration::microseconds(2)});
  LatencyProbe probe(engine);
  CellMux mux(link, probe, 0);
  mux.set_interleave(interleave);

  Burst bulk;
  bulk.vc = VcId{0, 1};
  bulk.payload.assign(bulk_bytes, std::byte{1});
  bulk.n_cells = static_cast<std::uint32_t>(aal5::cell_count(bulk_bytes));
  Burst frame;
  frame.vc = VcId{0, 2};
  frame.payload.assign(frame_bytes, std::byte{2});
  frame.n_cells = static_cast<std::uint32_t>(aal5::cell_count(frame_bytes));

  mux.submit(std::move(bulk));
  mux.submit(std::move(frame));  // the VOD frame arrives just behind it
  engine.run();
  return {probe.frame_done.sec() * 1e3, probe.bulk_done.sec() * 1e3};
}

}  // namespace

int main(int argc, char** argv) {
  ncs::cluster::BenchReport report("ablation_cellmux");
  std::printf("Ablation: cell interleaving on a shared 140 Mbps TAXI link.\n");
  std::printf("A 16 KB VOD frame queued right behind a bulk transfer:\n\n");
  std::printf("%12s  %16s %16s %12s\n", "bulk (KB)", "frame, FIFO (ms)",
              "frame, cells (ms)", "speedup");

  for (const std::size_t bulk_kb : {64u, 256u, 1024u, 4096u}) {
    const Measurement fifo = measure(false, bulk_kb * 1024, 16 * 1024);
    const Measurement cells = measure(true, bulk_kb * 1024, 16 * 1024);
    std::printf("%12zu  %16.3f %16.3f %11.1fx\n", bulk_kb, fifo.frame_ms, cells.frame_ms,
                fifo.frame_ms / cells.frame_ms);
    report.row();
    report.set("bulk_kb", static_cast<std::int64_t>(bulk_kb));
    report.set("frame_fifo_ms", fifo.frame_ms);
    report.set("frame_cells_ms", cells.frame_ms);
  }

  const Measurement fifo = measure(false, 1024 * 1024, 16 * 1024);
  const Measurement cells = measure(true, 1024 * 1024, 16 * 1024);
  std::printf("\nThe bulk transfer itself barely notices (%.2f vs %.2f ms): cell\n"
              "interleaving trades nothing for the latency win — the property that\n"
              "made ATM the bet for mixed VOD + HPDC traffic (paper Section 1).\n",
              fifo.bulk_ms, cells.bulk_ms);
  report.summary("bulk_fifo_ms", fifo.bulk_ms);
  report.summary("bulk_cells_ms", cells.bulk_ms);
  if (std::string json_path; ncs::cluster::parse_json_flag(argc, argv, &json_path))
    report.emit(json_path);
  return cells.frame_ms < fifo.frame_ms ? 0 : 1;
}
