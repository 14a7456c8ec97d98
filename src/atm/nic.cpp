#include "atm/nic.hpp"

#include <cstdlib>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::atm {

namespace {
/// Adapter "nic<r>" serves host p<r>.
int host_of(const std::string& nic_name) { return std::atoi(nic_name.c_str() + 3); }
}  // namespace

Nic::Nic(sim::Engine& engine, NicParams params, std::string name, const obs::Hub& obs)
    : engine_(engine),
      params_(params),
      name_(std::move(name)),
      obs_(&obs),
      tx_track_(host_of(name_), "/nic/tx"),
      rx_track_(host_of(name_), "/nic/rx") {
  NCS_ASSERT(params_.tx_buffers >= 1);
  NCS_ASSERT(params_.io_buffer_size >= 1);
  // The legacy knob becomes the uniform component of the fault state, on
  // the same seed and draw order as before fault/ existed.
  fault_.configure_uniform(params_.cell_corrupt_probability, params_.corrupt_seed);
}

void Nic::attach(net::Link& tx_link, CellSink& peer, int peer_port) {
  tx_link_ = &tx_link;
  peer_ = &peer;
  peer_port_ = peer_port;
}

void Nic::notify_tx_buffer(sim::EventFn cb) {
  NCS_ASSERT(cb != nullptr);
  if (tx_buffer_available()) {
    engine_.post(std::move(cb));
  } else {
    tx_waiters_.push_back(std::move(cb));
  }
}

void Nic::free_tx_buffer() {
  NCS_ASSERT(tx_buffers_in_use_ > 0);
  --tx_buffers_in_use_;
  if (!tx_waiters_.empty()) {
    // FIFO hand-off: one buffer freed wakes one waiter.
    sim::EventFn cb = std::move(tx_waiters_.front());
    tx_waiters_.erase(tx_waiters_.begin());
    engine_.post(std::move(cb));
  }
}

Duration Nic::tx_stage_time(std::size_t n) const {
  const auto cells = static_cast<std::int64_t>(cells_for(n));
  const Duration dma =
      params_.dma_setup + Duration::for_bytes(static_cast<std::int64_t>(n), params_.dma_bandwidth_bps);
  const Duration sar = params_.sar_setup + params_.sar_per_cell * cells;
  const Duration wire = tx_link_ != nullptr
                            ? tx_link_->tx_time(static_cast<std::size_t>(cells) * Cell::kSize)
                            : Duration::zero();
  return dma + sar + wire;
}

void Nic::submit_tx(VcId vc, Bytes chunk, bool end_of_message) {
  NCS_ASSERT_MSG(tx_link_ != nullptr && peer_ != nullptr, "NIC not attached");
  NCS_ASSERT_MSG(tx_buffer_available(), "submit_tx with no free buffer");
  NCS_ASSERT_MSG(chunk.size() <= params_.io_buffer_size, "chunk exceeds I/O buffer");
  ++tx_buffers_in_use_;
  const std::size_t chunk_bytes = chunk.size();

  Burst burst;
  burst.vc = vc;
  burst.end_of_message = end_of_message;
  if (params_.detailed_cells) {
    burst.cells = params_.adaptation == Adaptation::aal5
                      ? aal5::segment(vc, chunk)
                      : aal34::segment(vc, chunk, /*mid=*/0, next_btag_++);
    burst.n_cells = static_cast<std::uint32_t>(burst.cells.size());
    if (fault_.corrupting()) {
      // Transit fault injection: flip one payload bit in afflicted cells;
      // the receiving adapter's AAL CRC catches it.
      for (Cell& c : burst.cells) {
        if (fault_.draw_corrupt()) {
          ++fault_.stats().corrupted_cells;
          const auto at = fault_.draw_below(Cell::kPayloadSize);
          c.payload[at] ^= static_cast<std::byte>(1u << fault_.draw_below(8));
        }
      }
    }
  } else {
    burst.n_cells = static_cast<std::uint32_t>(cells_for(chunk.size()));
    burst.payload = std::move(chunk);
    if (fault_.corrupting()) {
      // Burst mode has no materialized cells to flip bits in; a corrupt
      // draw marks the PDU damaged and the receiver drops it at its CRC
      // check — the same per-cell Bernoulli process, same observable.
      for (std::uint32_t i = 0; i < burst.n_cells; ++i) {
        if (fault_.draw_corrupt()) {
          ++fault_.stats().corrupted_cells;
          burst.damaged = true;
        }
      }
    }
  }
  ++stats_.tx_chunks;
  stats_.tx_cells += burst.n_cells;

  // Pipeline: DMA then SAR are serial per-engine; the wire is entered via
  // an event at SAR completion so link FIFO order matches SAR order.
  const Duration dma_time =
      params_.dma_setup +
      Duration::for_bytes(static_cast<std::int64_t>(chunk_bytes), params_.dma_bandwidth_bps);
  const TimePoint dma_done = tx_dma_.occupy(engine_.now(), dma_time);
  const Duration sar_time = params_.sar_setup + params_.sar_per_cell * burst.n_cells;
  const TimePoint sar_done = sar_.occupy(dma_done, sar_time);
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    prof->record(obs::Layer::nic_dma, dma_time);
    prof->record(obs::Layer::nic_sar, sar_time);
    prof->record(obs::Layer::wire, tx_link_->tx_time(burst.wire_bytes()));
  }
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(tx_track_.id(*trace),
                    "tx " + std::to_string(chunk_bytes) + "B x" +
                        std::to_string(burst.n_cells),
                    "nic", engine_.now(), sar_done - engine_.now());

  engine_.schedule_at(sar_done, [this, b = std::move(burst)]() mutable {
    CellSink* peer = peer_;
    const int port = peer_port_;
    tx_link_->transmit(
        b.wire_bytes(), [this] { free_tx_buffer(); },
        [peer, port, b2 = std::move(b)]() mutable { peer->accept(port, std::move(b2)); });
  });
}

void Nic::firmware_tx(VcId vc, Bytes payload) {
  NCS_ASSERT_MSG(tx_link_ != nullptr && peer_ != nullptr, "NIC not attached");
  NCS_ASSERT_MSG(payload.size() <= params_.io_buffer_size, "firmware PDU exceeds I/O buffer");
  Burst burst;
  burst.vc = vc;
  burst.end_of_message = true;
  burst.n_cells = static_cast<std::uint32_t>(cells_for(payload.size()));
  burst.payload = std::move(payload);
  if (fault_.corrupting()) {
    // Same per-cell Bernoulli corruption process as host bursts; a damaged
    // firmware PDU is dropped at the receiving adapter's CRC check.
    for (std::uint32_t i = 0; i < burst.n_cells; ++i) {
      if (fault_.draw_corrupt()) {
        ++fault_.stats().corrupted_cells;
        burst.damaged = true;
      }
    }
  }
  ++stats_.tx_chunks;
  stats_.tx_cells += burst.n_cells;

  // No host->adapter DMA and no I/O buffer: the PDU originates in adapter
  // memory. The SAR engine is shared with host traffic, so firmware sends
  // queue behind in-flight host segmentation (and vice versa).
  const Duration sar_time = params_.sar_setup + params_.sar_per_cell * burst.n_cells;
  const TimePoint sar_done = sar_.occupy(engine_.now(), sar_time);
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    prof->record(obs::Layer::nic_sar, sar_time);
    prof->record(obs::Layer::wire, tx_link_->tx_time(burst.wire_bytes()));
  }
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(tx_track_.id(*trace), "fw-tx x" + std::to_string(burst.n_cells), "nic",
                    engine_.now(), sar_done - engine_.now());
  engine_.schedule_at(sar_done, [this, b = std::move(burst)]() mutable {
    CellSink* peer = peer_;
    const int port = peer_port_;
    tx_link_->transmit(
        b.wire_bytes(), nullptr,
        [peer, port, b2 = std::move(b)]() mutable { peer->accept(port, std::move(b2)); });
  });
}

TimePoint Nic::rx_dma_delay(std::size_t n) {
  const Duration dma_time =
      params_.dma_setup +
      Duration::for_bytes(static_cast<std::int64_t>(n), params_.dma_bandwidth_bps);
  return rx_dma_.occupy(engine_.now(), dma_time);
}

void Nic::accept(int /*port*/, Burst burst) {
  ++stats_.rx_chunks;
  stats_.rx_cells += burst.n_cells;

  Bytes payload;
  if (burst.detailed()) {
    // Real reassembly: HEC was implicitly valid (cells were never packed on
    // this path); run the adaptation layer's CRC/length checks.
    const auto push_all = [&](auto& reasm) -> bool {
      bool complete = false;
      for (const Cell& c : burst.cells) {
        auto out = reasm.push(c);
        if (!out.has_value()) continue;
        if (!out->is_ok()) {
          ++stats_.rx_errors;
          NCS_WARN("atm.nic", "%s: reassembly error: %s", name_.c_str(),
                   out->status().to_string().c_str());
          if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
            trace->instant(rx_track_.id(*trace), "rx-error " + out->status().to_string(), "nic",
                           engine_.now());
          return false;
        }
        payload = std::move(out->value());
        complete = true;
      }
      NCS_ASSERT_MSG(complete, "burst did not end a CPCS-PDU");
      return true;
    };
    const bool ok = params_.adaptation == Adaptation::aal5
                        ? push_all(rx_reassembly_[burst.vc])
                        : push_all(rx_reassembly34_[burst.vc]);
    if (!ok) return;
  } else {
    if (burst.damaged) {
      // Burst-mode stand-in for a CRC failure during reassembly.
      ++stats_.rx_errors;
      NCS_WARN("atm.nic", "%s: dropping damaged PDU (injected corruption)", name_.c_str());
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
        trace->instant(rx_track_.id(*trace), "rx-error injected corruption", "nic", engine_.now());
      return;
    }
    payload = std::move(burst.payload);
  }

  // Firmware-terminated VCs never cross the SBus: the i960 consumes the
  // PDU right after reassembly, with no RX DMA and no host upcall.
  if (fw_handler_ && burst.vc.vpi == 0 && burst.vc.vci >= fw_lo_ && burst.vc.vci < fw_hi_) {
    fw_handler_(burst.vc, std::move(payload), burst.end_of_message);
    return;
  }

  // Adapter->host DMA, then the host upcall.
  const Duration dma_time =
      params_.dma_setup +
      Duration::for_bytes(static_cast<std::int64_t>(payload.size()), params_.dma_bandwidth_bps);
  const TimePoint done = rx_dma_.occupy(engine_.now(), dma_time);
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(rx_track_.id(*trace), "rx " + std::to_string(payload.size()) + "B", "nic",
                    engine_.now(), done - engine_.now());
  engine_.schedule_at(done, [this, vc = burst.vc, p = std::move(payload),
                             eom = burst.end_of_message]() mutable {
    if (vc.vpi == 0) {
      for (const VcRange& r : vc_ranges_) {
        if (vc.vci >= r.lo && vc.vci < r.hi) {
          r.handler(vc, std::move(p), eom);
          return;
        }
      }
    }
    if (const auto it = vc_handlers_.find(vc); it != vc_handlers_.end()) {
      it->second(vc, std::move(p), eom);
      return;
    }
    if (rx_handler_) rx_handler_(vc, std::move(p), eom);
  });
}

void Nic::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/tx_chunks", &stats_.tx_chunks);
  reg.counter(prefix + "/tx_cells", &stats_.tx_cells);
  reg.counter(prefix + "/rx_chunks", &stats_.rx_chunks);
  reg.counter(prefix + "/rx_cells", &stats_.rx_cells);
  reg.counter(prefix + "/rx_errors", &stats_.rx_errors);
}

}  // namespace ncs::atm
