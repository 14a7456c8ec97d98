// NCS_MPS transport interface — the seam between the paper's two
// implementation approaches.
//
//   Approach 1 (evaluated, "NCS_MTS/p4"): P4Transport — NCS messages ride
//   p4 typed messages over TCP. NSM tier.
//
//   Approach 2 (described, HSM): AtmTransport — NCS messages go straight
//   to the ATM API: trap + copy into mapped kernel buffers, chunked
//   through the NIC's multiple I/O buffers (Fig 2 pipelining).
//
// Both sides run inside NCS system threads: submit() is called by the send
// thread and may block it (NIC buffer backpressure, p4 socket costs);
// recv_next() is called by the receive thread and blocks until a complete
// message has arrived and its receive-side CPU cost is charged.
#pragma once

#include <functional>

#include "core/mps/message.hpp"

namespace ncs::mps {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Static cost shape of this transport, used by the protocol engine to
  /// place its eager/rendezvous crossover (mps/proto.hpp). Zeroed fields
  /// mean "unknown" — the engine falls back to conservative defaults.
  struct CostHints {
    /// Fixed host-side cost charged per submitted message, independent of
    /// its size (trap/syscall, per-message bookkeeping).
    Duration per_message;
    /// Sustained host-side copy/processing bandwidth for the size-
    /// proportional part of a submit.
    double bytes_per_sec = 0.0;
    /// Preferred bulk-transfer granularity: the payload that fills one
    /// NIC I/O buffer (the unit of the multi-buffer DMA overlap), or 0
    /// when the transport has no such structure.
    std::size_t dma_window = 0;
  };

  /// Sends one message (send-thread context). Returns when the local
  /// hand-off completes — the paper's point at which the blocked compute
  /// thread may be woken.
  virtual void submit(const Message& msg) = 0;

  /// Bulk variant for rendezvous chunk frames: a transport that stages
  /// through fixed-size buffers may honor `chunk_hint` (bytes per staging
  /// copy, pre-clamped by the caller to cost_hints().dma_window) instead
  /// of its small-message chunking. Default: plain submit.
  virtual void submit_bulk(const Message& msg, std::size_t /*chunk_hint*/) { submit(msg); }

  virtual CostHints cost_hints() const { return {}; }

  /// Blocks until the next complete inbound message (receive-thread
  /// context). Receive-side CPU costs are charged here.
  virtual Message recv_next() = 0;

  /// Human-readable tier name ("NSM/p4" or "HSM/ATM").
  virtual const char* name() const = 0;

  /// Optional: invoked (system context, non-blocking) when the transport
  /// detects and drops a damaged inbound frame, with the source process.
  /// Transports without such a failure mode ignore it.
  virtual void set_frame_error_handler(std::function<void(int)> /*handler*/) {}
};

}  // namespace ncs::mps
