// Size-adaptive point-to-point protocol engine: eager coalescing for
// small messages, rendezvous (RTS/CTS + chunked bulk transfer) for large
// ones.
//
// The paper charges a fixed per-message host cost on every transfer (trap
// + NCS bookkeeping on HSM, syscall + p4 + TCP on NSM). For small
// messages that fixed cost dominates, so the engine batches consecutive
// sends to the same destination into a single transport frame — one trap,
// one flow-control credit, one ack for the whole batch — and the caller's
// NCS_send completes as soon as its payload is copied into the batch
// (buffered-send semantics; the paper's hand-off point moves earlier, the
// delivery guarantees are unchanged because the frame rides the same
// error-control machinery). For large messages the extra staging copy
// dominates instead, so the engine first runs an RTS/CTS handshake (the
// receiver confirms it is reachable and advertises its NIC's I/O-buffer
// size) and then streams the payload as chunk frames sized to the
// multi-buffer DMA window (Fig 2) via Transport::submit_bulk — fewer
// traps per byte, and each copy fills exactly the buffer the adapter is
// about to drain.
//
// The eager/rendezvous crossover is picked per send: forced by
// ProtoParams::eager_max_bytes when set, otherwise derived from the
// transport's cost hints (the payload size where the RTS/CTS round trip
// equals the eager pack-copy cost) and refined online from measured
// handshake delays.
//
// Frames travel as ordinary Messages addressed to kProtoThread with their
// own gap-free per-destination sequence space: they — not the coalesced
// messages inside them — are the unit of flow-control credits and of
// error-control ack/dedup/reorder, so per-source FIFO delivery holds
// across mixed eager/rendezvous traffic. The receiving ProtoEngine
// unpacks frames back into ordinary messages before any mailbox pattern
// sees them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/peer_map.hpp"
#include "core/mps/error_control.hpp"
#include "core/mps/exception.hpp"
#include "core/mps/flow_control.hpp"
#include "core/mps/transport.hpp"
#include "core/mts/scheduler.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace ncs::mps {

// --- control-plane message kinds (payload byte 0 of a message addressed
//     to kControlThread) ---
inline constexpr std::uint8_t kCtlAck = 1;
/// Rendezvous request-to-send: [kind][u32 transfer][i32 from_thread]
/// [i32 to_thread][u32 msg_seq][u32 total_bytes].
inline constexpr std::uint8_t kCtlRts = 2;
/// Rendezvous clear-to-send: [kind][u32 transfer][u32 chunk_hint].
inline constexpr std::uint8_t kCtlCts = 3;

// --- frame kinds (payload byte 0 of a message addressed to kProtoThread;
//     fixed 6-byte frame header [u8 kind][u8 flags][u32 arg]) ---
/// Eager batch: arg = message count, then per message
/// [i32 from_thread][i32 to_thread][u32 seq][u32 len][len bytes].
inline constexpr std::uint8_t kFrameEager = 1;
/// Rendezvous chunk: arg = transfer id, flags bit 0 = final chunk; the
/// remaining bytes are the next in-order slice of the payload.
inline constexpr std::uint8_t kFrameChunk = 2;
inline constexpr std::uint8_t kChunkFinal = 1;
inline constexpr std::size_t kFrameHeaderBytes = 6;

enum class ProtoMode : std::uint8_t {
  off,         // legacy path: one transport submit per message
  adaptive,    // eager at or below the crossover, rendezvous above
  eager,       // force eager/coalescing for every size
  rendezvous,  // force RTS/CTS for every size
};

const char* to_string(ProtoMode m);

struct ProtoParams {
  ProtoMode mode = ProtoMode::off;

  /// Largest payload still sent eagerly under `adaptive` (bytes). 0 = pick
  /// automatically from the transport's cost hints + measured RTS/CTS
  /// delays (see ProtoEngine::crossover_bytes).
  std::size_t eager_max_bytes = 0;

  /// Eager batch limits: a batch is flushed when its payload bytes or its
  /// message count would exceed these, when `flush_timeout` elapses since
  /// the first message entered it, or when the send queue runs dry
  /// (`flush_on_idle`).
  std::size_t coalesce_max_bytes = 4096;
  int coalesce_max_msgs = 16;
  Duration flush_timeout = Duration::microseconds(50);
  bool flush_on_idle = true;

  /// Rendezvous chunk payload bytes. 0 = size chunks to the transport's
  /// DMA window (cost_hints().dma_window, e.g. one HSM NIC I/O buffer),
  /// additionally bounded by the window the receiver advertises in CTS.
  std::size_t rndv_chunk_bytes = 0;

  /// The RTS is retransmitted every `cts_timeout` until the CTS arrives;
  /// past `cts_retry_limit` resends the transfer is abandoned (window
  /// credit returned, message_timeout raised) — the rendezvous analogue of
  /// error control giving up.
  Duration cts_timeout = Duration::milliseconds(50);
  int cts_retry_limit = 10;
};

/// Per-node protocol engine. Owned by Node; every method runs on one of
/// the node's system threads (send thread for the transmit half, receive
/// thread for on_rts/on_cts/rx_frame) except the engine-context flush
/// timer, which only requests a flush through Hooks::request_flush.
class ProtoEngine {
 public:
  /// Seams back into the owning Node (the engine deliberately does not see
  /// Node itself).
  struct Hooks {
    /// Serialized transport submit (Node::submit_locked). May block.
    std::function<void(const Message&)> submit;
    /// Serialized bulk submit for rendezvous chunk frames.
    std::function<void(const Message&, std::size_t chunk_hint)> submit_bulk;
    /// Receive-side hand-off of a reconstructed application message
    /// (trace + profiler deliver stamp + mailbox).
    std::function<void(Message)> deliver;
    /// Engine context -> send thread: enqueue a flush marker for `dst`
    /// (the flush itself must run on the send thread).
    std::function<void(int dst)> request_flush;
    /// Delivery-failure report (system context, must not block).
    std::function<void(NcsExceptionKind, int peer, std::uint32_t seq)> exception;
  };

  /// Frame spans and rendezvous give-ups go onto rank's "p<rank>/mps/send"
  /// trace track; Layer::proto gets batch-residency and handshake delays,
  /// the named proto histograms eager batch occupancy and RTS->CTS delay.
  ProtoEngine(mts::Scheduler& host, Transport& transport, FlowControl& fc, ErrorControl& ec,
              ProtoParams params, int rank, double copy_cycles_per_byte,
              double fixed_cycles, Hooks hooks, const obs::Hub& obs = obs::Hub::off());

  bool enabled() const { return params_.mode != ProtoMode::off; }
  const ProtoParams& params() const { return params_; }

  /// True when a payload of `bytes` should take the rendezvous path under
  /// the configured mode.
  bool use_rendezvous(std::size_t bytes) const;

  /// The eager/rendezvous boundary currently in force (eager at or below).
  std::size_t crossover_bytes() const;

  // --- send-thread context ---

  enum class FlushReason : std::uint8_t { full, timeout, idle, ordered };

  /// Buffered send: copies `msg` into its destination's batch (the caller
  /// may be woken immediately afterwards) and flushes inline when the
  /// batch fills.
  void eager_enqueue(Message msg);

  /// Flushes the destination's pending batch as one frame (no-op when
  /// empty). May block on flow control.
  void flush(int dst, FlushReason reason);

  /// Flushes every non-empty batch (send queue ran dry), in ascending
  /// destination order.
  void flush_all(FlushReason reason);

  /// True when some batch holds messages (used by the idle-flush check).
  bool has_pending() const { return !pending_.empty(); }

  /// Destinations holding protocol state (a batch or a frame sequence),
  /// created on the first eager message or frame toward them.
  std::size_t peer_records() const { return peers_.size(); }

  /// Rendezvous transfer: RTS/CTS handshake, then chunked bulk transfer.
  /// Blocks the send thread until the last chunk's hand-off. Returns false
  /// when the handshake timed out past the retry limit (transfer
  /// abandoned; credit returned and the exception hook already invoked).
  bool rendezvous(const Message& msg);

  // --- receive-thread context ---

  static bool is_frame(const Message& msg) { return msg.to_thread == kProtoThread; }

  /// Whether the ack for this frame returns a flow-control window credit:
  /// eager frames and final rendezvous chunks do (they are what
  /// before_send charged); middle chunks ride their transfer's credit.
  static bool frame_takes_credit(const Message& frame);

  /// In-order frame from error control: unpack an eager batch into
  /// individual deliveries, or append a rendezvous chunk (delivering the
  /// reassembled message on the final one).
  void rx_frame(Message frame);

  void on_rts(const Message& ctl);
  void on_cts(const Message& ctl);

  struct Stats {
    std::uint64_t eager_msgs = 0;    // messages coalesced into batches
    std::uint64_t eager_frames = 0;  // frames flushed
    std::uint64_t eager_bytes = 0;   // payload bytes through eager batches
    std::uint64_t flush_full = 0;
    std::uint64_t flush_timeout = 0;
    std::uint64_t flush_idle = 0;
    std::uint64_t flush_ordered = 0;  // flushed ahead of a rendezvous/fence
    std::uint64_t rndv_transfers = 0;
    std::uint64_t rndv_chunks = 0;
    std::uint64_t rndv_completed = 0;  // receiver-side reassemblies delivered
    std::uint64_t rts_resends = 0;
    std::uint64_t rndv_give_ups = 0;  // handshakes abandoned past the limit
    std::uint64_t frames_rx = 0;
    std::uint64_t orphan_chunks = 0;  // chunk with no matching RTS state
    std::uint64_t rndv_failed = 0;    // reassembly size mismatch (loss, no EC)
  };
  const Stats& stats() const { return stats_; }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Batch {
    std::vector<Message> msgs;
    std::vector<TimePoint> enqueued;  // parallel to msgs, for residency
    std::size_t bytes = 0;            // payload bytes (headers excluded)
    sim::EventId timer = 0;           // pending flush-timeout event
    bool flush_requested = false;     // a timer marker sits in the send queue
  };

  /// Sender-side handshake state, keyed by transfer id.
  struct RndvTx {
    mts::Thread* waiter = nullptr;
    bool waiting = false;  // parked specifically for the CTS (not elsewhere)
    bool cts = false;
    std::uint32_t chunk_hint = 0;  // receiver's advertised window (bytes)
  };

  /// Receiver-side reassembly state, keyed (source, transfer id).
  struct RndvRx {
    int from_thread = 0;
    int to_thread = 0;
    std::uint32_t msg_seq = 0;
    std::size_t total = 0;
    Bytes buf;
  };
  using RxKey = std::pair<int, std::uint32_t>;

  Message make_frame(int dst, Bytes payload);
  void send_cts(int src, std::uint32_t transfer);
  std::size_t chunk_payload_bytes(std::uint32_t peer_hint) const;

  mts::Scheduler& host_;
  Transport& transport_;
  FlowControl& fc_;
  ErrorControl& ec_;
  ProtoParams params_;
  int rank_;
  double copy_cycles_per_byte_;
  double fixed_cycles_;
  Hooks hooks_;

  struct Peer {
    Batch batch;
    std::uint32_t frame_seq = 0;  // gap-free per destination
  };
  PeerMap<Peer> peers_;
  /// Destinations whose batch holds messages, ascending — flush_all's
  /// order, so it walks only pending batches yet flushes as a scan over
  /// every rank would.
  std::vector<int> pending_;

  std::uint32_t next_transfer_ = 1;
  std::map<std::uint32_t, RndvTx> rndv_tx_;
  std::map<RxKey, RndvRx> rndv_rx_;
  /// Completed inbound transfers: a duplicated RTS (its CTS was lost) must
  /// be re-CTS'd without restarting the reassembly.
  std::set<RxKey> rndv_done_;

  /// EWMA of measured RTS->CTS delays (picoseconds); refines the automatic
  /// crossover once real handshakes have been observed.
  double rtt_ewma_ps_ = 0.0;

  const obs::Hub* obs_;
  obs::Track track_;

  Stats stats_;
};

}  // namespace ncs::mps
