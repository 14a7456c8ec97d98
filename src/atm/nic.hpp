// ATM host adapter, modeled on the FORE SBA-200.
//
// The SBA-200 pairs a dedicated i960 (25 MHz) that performs AAL
// segmentation/reassembly and CRC with DMA hardware that moves data over
// the SBus — so the host CPU touches the data only to copy it into the
// adapter's I/O buffers. That offload is what makes the paper's HSM path
// cheap, and the *multiple* I/O buffers are what Fig 2 exploits: while the
// adapter drains buffer k, the host fills buffer k+1.
//
// TX pipeline per chunk (one I/O buffer, one AAL5 PDU):
//   host copy (charged by the caller)  ->  DMA host->adapter  ->
//   i960 SAR  ->  wire.  The buffer frees when its last bit leaves the
//   wire; tx_buffer_available()/notify_tx_buffer() expose backpressure so
//   the send thread blocks exactly when the paper's would.
// RX pipeline: wire -> i960 reassembly -> DMA adapter->host -> rx handler.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "atm/aal34.hpp"
#include "atm/aal5.hpp"
#include "atm/burst.hpp"
#include "common/time.hpp"
#include "fault/faults.hpp"
#include "net/link.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace ncs::atm {

/// Which adaptation layer the adapter firmware runs (the paper's protocol
/// stacks, Figs 11/12, show both): AAL5 carries 48 payload bytes per cell;
/// AAL3/4 spends 4 of them on per-cell header/trailer (44 useful) plus a
/// CPCS envelope — the ~9 % efficiency gap that made AAL5 win.
enum class Adaptation { aal5, aal34 };

struct NicParams {
  Adaptation adaptation = Adaptation::aal5;
  /// Size of one I/O buffer: the unit of host<->adapter transfer and of
  /// AAL segmentation (one buffer = one CPCS-PDU).
  std::size_t io_buffer_size = 4096;
  /// Number of transmit-side I/O buffers (paper Fig 2; >= 1).
  int tx_buffers = 2;
  /// SBus DMA: per-transfer setup plus streaming bandwidth.
  Duration dma_setup = Duration::microseconds(2);
  double dma_bandwidth_bps = 320e6;  // ~40 MB/s sustained SBus
  /// i960 SAR engine: per-PDU setup plus per-cell processing.
  Duration sar_setup = Duration::microseconds(4);
  Duration sar_per_cell = Duration::nanoseconds(700);
  /// Materialize and check real cells (HEC + AAL5 CRC) instead of only
  /// charging their time. Identical timing; used by validation tests.
  bool detailed_cells = false;
  /// Fault injection: per-cell probability of a payload bit flip in
  /// transit — caught by the AAL5 CRC-32 at the receiving adapter, exactly
  /// like real fiber errors were. In detailed mode the bit really flips;
  /// in burst mode the afflicted PDU is marked damaged and the receiver
  /// counts an rx_error and drops it (same observable behaviour). Sugar
  /// for a trivial FaultPlan; scripted corruption windows layer on top via
  /// FaultInjector::attach_nic.
  double cell_corrupt_probability = 0.0;
  std::uint64_t corrupt_seed = 0xC0FFEE;
};

class Nic : public CellSink {
 public:
  /// (source vc as seen by this host, chunk payload, end-of-message flag)
  using RxHandler = std::function<void(VcId, Bytes, bool)>;

  /// Observability through `obs`: "p<r>/nic/tx" and "p<r>/nic/rx" trace
  /// tracks for adapter "nic<r>" (TX spans cover DMA+SAR per chunk, RX
  /// spans the adapter->host DMA, plus error instants), and per-burst
  /// pipeline stage durations (host DMA, i960 SAR, link serialization) into
  /// Layer::nic_dma / nic_sar / wire — the Table 4 adapter-side breakdown.
  Nic(sim::Engine& engine, NicParams params, std::string name = "nic",
      const obs::Hub& obs = obs::Hub::off());

  /// Connects the transmit side: bursts go out on `tx_link` and arrive at
  /// `peer` (normally a switch port).
  void attach(net::Link& tx_link, CellSink& peer, int peer_port);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  /// Per-VC override: traffic on `vc` bypasses the default handler —
  /// how the signaling channel (VPI 0 / VCI 5) terminates at the
  /// SignalingAgent without disturbing the data-plane demultiplexer.
  void set_vc_handler(VcId vc, RxHandler handler) {
    vc_handlers_[vc] = std::move(handler);
  }

  /// Host termination for the VPI-0 VCI range [lo, hi): chunks on these
  /// VCs go to `handler` after the adapter->host DMA, ahead of the per-VC
  /// and default handlers. One entry covers a whole PVC plane, so a plane
  /// of P peers costs one handler, not P — the RMA engine terminates its
  /// plane this way. Ranges are checked in the order added.
  void add_vc_range_handler(std::uint16_t lo, std::uint16_t hi, RxHandler handler) {
    if (lo < hi) vc_ranges_.push_back(VcRange{lo, hi, std::move(handler)});
  }

  /// Firmware-resident termination for the VPI-0 VCI range [lo, hi):
  /// reassembled PDUs on these VCs are handed to `handler` in adapter
  /// (i960) time — no adapter->host DMA, no host upcall. This is how the
  /// NIC-collective combine/forward engine terminates its plane.
  void set_firmware_range(std::uint16_t lo, std::uint16_t hi, RxHandler handler) {
    fw_lo_ = lo;
    fw_hi_ = hi;
    fw_handler_ = std::move(handler);
  }

  // --- TX (driver interface) ---
  bool tx_buffer_available() const { return tx_buffers_in_use_ < params_.tx_buffers; }
  /// Occupied I/O buffers right now — the telemetry backpressure probe.
  int tx_buffers_in_use() const { return tx_buffers_in_use_; }

  /// One-shot: `cb` fires when a TX buffer frees (immediately via the event
  /// queue if one is already free).
  void notify_tx_buffer(sim::EventFn cb);

  /// Hands one chunk (<= io_buffer_size) to the adapter. The host-side copy
  /// cost is the caller's to charge; this models DMA + SAR + wire.
  /// Precondition: tx_buffer_available().
  void submit_tx(VcId vc, Bytes chunk, bool end_of_message);

  /// Adapter time (DMA+SAR+wire serialization, no queueing or propagation)
  /// for a chunk of `n` bytes — used by benches to report ideal pipelines.
  Duration tx_stage_time(std::size_t n) const;

  /// Firmware-originated transmit: the i960 segments and sends `payload` on
  /// `vc` without touching host I/O buffers or the host->adapter DMA — the
  /// cells never existed in host memory. Charges the SAR engine (sharing it
  /// with host traffic) and enters the wire in SAR-completion order.
  void firmware_tx(VcId vc, Bytes payload);

  /// Occupies the adapter->host RX DMA engine for an `n`-byte delivery and
  /// returns the completion time — firmware-resident modules use it to
  /// schedule their host completion upcalls with the same contention the
  /// data path sees.
  TimePoint rx_dma_delay(std::size_t n);

  // --- RX (network side) ---
  void accept(int port, Burst burst) override;

  struct Stats {
    std::uint64_t tx_chunks = 0;
    std::uint64_t tx_cells = 0;
    std::uint64_t rx_chunks = 0;
    std::uint64_t rx_cells = 0;
    std::uint64_t rx_errors = 0;
  };
  const Stats& stats() const { return stats_; }
  const NicParams& params() const { return params_; }
  const std::string& name() const { return name_; }

  /// Corruption fault state (the legacy knob is its uniform component).
  fault::NicFault& fault() { return fault_; }

  /// Registers the adapter's counters under `prefix` (e.g. "p0/nic").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

  /// The observability hub this adapter (and its firmware) reports to.
  const obs::Hub& obs() const { return *obs_; }

 private:
  void free_tx_buffer();

  sim::Engine& engine_;
  NicParams params_;
  std::string name_;

  net::Link* tx_link_ = nullptr;
  CellSink* peer_ = nullptr;
  int peer_port_ = 0;

  int tx_buffers_in_use_ = 0;
  std::vector<sim::EventFn> tx_waiters_;
  sim::SerialResource tx_dma_;
  sim::SerialResource sar_;
  sim::SerialResource rx_dma_;

  /// Cells to carry `n` payload bytes under the configured adaptation.
  std::size_t cells_for(std::size_t n) const {
    return params_.adaptation == Adaptation::aal5 ? aal5::cell_count(n)
                                                  : aal34::cell_count(n);
  }

  std::map<VcId, aal5::Reassembler> rx_reassembly_;       // detailed AAL5
  std::map<VcId, aal34::Reassembler> rx_reassembly34_;    // detailed AAL3/4
  std::uint8_t next_btag_ = 0;
  fault::NicFault fault_;
  RxHandler rx_handler_;
  std::uint16_t fw_lo_ = 0;
  std::uint16_t fw_hi_ = 0;  // empty range = no firmware termination
  RxHandler fw_handler_;
  struct VcRange {
    std::uint16_t lo;
    std::uint16_t hi;
    RxHandler handler;
  };
  std::vector<VcRange> vc_ranges_;
  std::map<VcId, RxHandler> vc_handlers_;
  const obs::Hub* obs_;
  obs::Track tx_track_;
  obs::Track rx_track_;
  Stats stats_;
};

}  // namespace ncs::atm
