// Approach 2: NCS_MPS directly on the ATM API — the HSM tier.
//
// The send thread traps into the kernel (cheap — no full syscall), copies
// each chunk into a kernel buffer that is mmap'ed into NCS's address space
// (2 CPU bus accesses per word instead of the socket path's 4), and hands
// it to one of the NIC's multiple I/O buffers. While the adapter DMAs and
// segments buffer k, the send thread is already copying into buffer k+1 —
// the paper's Fig 2 "parallel data transfer" emerges from the buffer
// backpressure, it is not separately modeled.
//
// The receive thread mirrors it: the NIC upcall queues chunks; the thread
// charges the trap + copy per chunk and reassembles messages (chunks of a
// given source arrive in order on its PVC).
#pragma once

#include <map>

#include "atm/network.hpp"
#include "atm/signaling.hpp"
#include "core/mps/transport.hpp"
#include "core/mts/sync.hpp"
#include "obs/hub.hpp"
#include "proto/costs.hpp"

namespace ncs::mps {

class AtmTransport final : public Transport {
 public:
  struct Params {
    /// Bytes copied per trap — one NIC I/O buffer's worth.
    std::size_t chunk_size = 4096;
    proto::CostModel costs;
    /// When set, destinations are reached over switched virtual circuits
    /// opened on demand through this signaling agent (first send to a peer
    /// blocks for the call setup handshake) instead of the static PVC
    /// mesh. The agent must belong to the same host's NIC. Network-side
    /// releases (port failures) invalidate the cached circuit; the next
    /// send re-signals.
    atm::SignalingAgent* signaling = nullptr;
    /// Rejected call setups are retried after a backoff (a transiently
    /// failed port heals); past the limit the transport aborts the run.
    int svc_retry_limit = 8;
    Duration svc_retry_backoff = Duration::milliseconds(10);
  };

  /// NIC I/O-buffer backpressure stalls feed Layer::tx_buffer_stall.
  AtmTransport(mts::Scheduler& host, atm::Nic& nic, Params params,
               const obs::Hub& obs = obs::Hub::off());

  void submit(const Message& msg) override;
  /// Rendezvous bulk path: copies up to a whole I/O buffer per trap
  /// (clamped to [chunk_size, io_buffer_size]) so a large transfer pays
  /// the trap + bookkeeping cost once per buffer instead of once per
  /// small-message chunk, and each copy fills the buffer the adapter is
  /// about to DMA — the Fig 2 multi-buffer overlap at full granularity.
  void submit_bulk(const Message& msg, std::size_t chunk_hint) override;
  Message recv_next() override;
  CostHints cost_hints() const override;
  const char* name() const override { return "HSM/ATM"; }
  void set_frame_error_handler(std::function<void(int)> handler) override {
    frame_error_handler_ = std::move(handler);
  }
  struct Stats {
    std::uint64_t tx_chunks = 0;
    std::uint64_t rx_chunks = 0;
    std::uint64_t tx_buffer_stalls = 0;
    std::uint64_t rx_frame_errors = 0;  // garbled reassemblies (loss, no EC)
    std::uint64_t svc_calls_opened = 0;
    std::uint64_t svc_invalidations = 0;  // cached circuits lost to releases
    std::uint64_t svc_retries = 0;        // setups retried after rejection
  };
  const Stats& stats() const { return stats_; }

 private:
  void wait_for_tx_buffer();
  /// Transmit label towards `to_process` (PVC label, or an SVC opened on
  /// first use — which blocks the calling thread for the handshake).
  atm::VcId vc_towards(int to_process);

  mts::Scheduler& host_;
  atm::Nic& nic_;
  Params params_;

  struct RxChunk {
    atm::VcId vc;
    Bytes data;
    bool end_of_message;
  };
  mts::Channel<RxChunk> rx_;
  std::map<atm::VcId, Bytes> partial_;  // per-circuit reassembly
  std::map<int, atm::VcId> svc_to_;     // destination -> established SVC
  std::function<void(int)> frame_error_handler_;
  const obs::Hub* obs_;

  Stats stats_;
};

}  // namespace ncs::mps
