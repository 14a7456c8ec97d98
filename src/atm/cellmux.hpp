// Per-VC cell-interleaved link scheduling.
//
// The defining property of ATM — and the reason the paper's VOD/QOS story
// is told over ATM at all — is that traffic is multiplexed in 53-byte
// cells: an urgent stream's cells interleave with a bulk transfer's at
// per-cell granularity (~3 us on TAXI), instead of waiting behind whole
// frames or messages. The main data plane forwards per-burst (a
// deliberate, property-tested timing simplification that is exact when
// flows do not contend); CellMux is the cell-accurate scheduler for
// studying exactly the contended case: round-robin across VCs, one cell
// per turn. Setting `interleave = false` degrades it to burst-at-once
// FIFO — the head-of-line blocking a frame-based network would impose —
// which the ablation bench quantifies.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "atm/burst.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace ncs::atm {

class CellMux {
 public:
  CellMux(net::Link& link, CellSink& peer, int peer_port);

  /// Round-robin per-VC cell interleaving (true) or burst-at-once FIFO.
  void set_interleave(bool on) { interleave_ = on; }

  /// Queues a burst. Its payload is delivered to the peer when its last
  /// cell arrives.
  void submit(Burst burst);

  struct Stats {
    std::uint64_t bursts = 0;
    std::uint64_t cells_sent = 0;
    std::uint64_t turns = 0;  // scheduler decisions
  };
  const Stats& stats() const { return stats_; }

  /// Registers the mux's counters under `prefix` (e.g. "p0/cellmux").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

  /// Introspection for the SVC-churn regression tests: both must stay
  /// bounded by the number of *currently backlogged* VCs, not by every VC
  /// ever seen.
  std::size_t rr_ring_size() const { return rr_order_.size(); }
  std::size_t flow_count() const { return flows_.size(); }

  /// Bursts queued and not yet fully serialized, across every VC (plus the
  /// FIFO in non-interleaved mode) — the telemetry VC-backlog probe.
  std::size_t backlog() const {
    std::size_t n = fifo_.size();
    for (const auto& kv : flows_) n += kv.second.bursts.size();
    return n;
  }

 private:
  struct Flow {
    std::deque<Burst> bursts;
    std::uint32_t cells_left_in_head = 0;
    bool in_ring = false;
  };

  void pump();
  Flow* next_flow();

  net::Link& link_;
  CellSink& peer_;
  int peer_port_;
  bool interleave_ = true;
  bool transmitting_ = false;

  std::map<VcId, Flow> flows_;
  std::vector<VcId> rr_order_;
  std::size_t rr_pos_ = 0;
  std::deque<Burst> fifo_;  // non-interleaved mode

  Stats stats_;
};

}  // namespace ncs::atm
