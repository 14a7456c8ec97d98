// One-sided RMA engine: NCS_put / NCS_get / remote atomics over HSM.
//
// The paper's HSM path already removed the kernel from the data plane;
// this subsystem removes the *receiver's threads* too. Each rank's engine
// terminates a dedicated PVC mesh (atm::rma_vc_to, a second label plane
// parallel to the data mesh) directly in the NIC upcall, the way the
// signaling agent terminates VPI 0 / VCI 5 — so a put lands in the target
// window and an atomic executes against it with zero involvement from the
// target's send/receive/EC threads. Target-side work is charged as
// adapter firmware time (Params::target_exec), not host CPU.
//
// Initiator side: posting is cheap (descriptor build, desc_post_cycles on
// the calling thread) and returns an op id immediately; the operation's
// fate arrives on the endpoint's CompletionQueue. Per-peer admission
// credits bound the outstanding-descriptor window (ops beyond the window
// defer in FIFO order), and a per-op response timer drives retransmission:
// every request kind is made idempotent at the target (puts/gets by
// nature, atomics by a response cache keyed on op id, pruned by the
// initiator's advertised completion watermark), so a lost request or
// response is repaired by simple resend. When retries exhaust — the
// persistent-failure case, e.g. a SwitchFault tore the circuit down — the
// op completes *with error* on the CQ (typed message_timeout), its credit
// is released, and the node's exception handler is informed; no operation
// is ever silently dropped.
//
// Determinism: all state changes happen in engine-event or green-thread
// context under the simulator's (time, seq) contract; identical configs
// produce bit-identical completion streams (asserted by tests/rma).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "atm/network.hpp"
#include "atm/nic.hpp"
#include "common/bytes.hpp"
#include "common/peer_map.hpp"
#include "core/mts/scheduler.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "rma/cq.hpp"
#include "rma/window.hpp"

namespace ncs::rma {

struct Params {
  /// Outstanding operations per peer before posts defer (descriptor ring
  /// depth on the adapter).
  int op_credits = 8;
  /// Largest single put/get payload (one descriptor).
  std::size_t max_op_bytes = 1 << 20;
  /// Host cycles to build and ring a descriptor (the entire initiator-side
  /// software cost — the one-sided analogue of the paper's send overhead).
  double desc_post_cycles = 120;
  /// Adapter firmware time to execute one request at the target (window
  /// lookup, DMA setup or atomic read-modify-write).
  Duration target_exec = Duration::microseconds(1.5);
  /// Response timeout before a request is retransmitted. Must exceed the
  /// worst-case RTT of the provisioned topology (WAN hops are milliseconds).
  Duration response_timeout = Duration::milliseconds(40);
  /// Retransmissions before an op completes with error.
  int retry_limit = 8;
};

class Engine {
 public:
  /// Observability through `obs`: posts become spans (descriptor-build
  /// cost) on the "p<rank>/rma" trace track starting a flow arrow; target
  /// execution spans end it and start the response arrow; completions end
  /// that — the one-sided analogue of the send/recv flow stitching.
  /// Retransmits, errors and replays stay instants. Every completion (ok
  /// or error) records its post->completion latency into Layer::rma, the
  /// per-kind "rma" profile section and the "rma/op" telemetry sketch.
  Engine(mts::Scheduler& host, atm::Nic& nic, int rank, int n_procs, Params params = {},
         const obs::Hub& obs = obs::Hub::off());

  int rank() const { return rank_; }
  int n_procs() const { return n_procs_; }
  const Params& params() const { return params_; }

  // --- registration ---

  /// Registers `bytes` of engine-owned zeroed storage as window `id`.
  Window& create_window(int id, std::size_t bytes);
  /// Registers caller-owned memory (must outlive the engine) as window `id`.
  Window& register_window(int id, std::span<std::byte> user);
  /// Local window by id, or nullptr.
  Window* window(int id);

  /// Resolves a remote coordinate to the adapter descriptor that would
  /// carry it: the RMA-plane VC toward `peer` plus the target window
  /// coordinates. Pure translation; no validation against the remote side.
  DmaDescriptor descriptor_for(int peer, int rwindow, std::uint64_t roffset,
                               std::uint32_t len) const {
    return DmaDescriptor{atm::rma_vc_to(peer), rwindow, roffset, len};
  }

  // --- one-sided operations (calling thread context; non-blocking) ---

  /// Copies `data` into remote (rwindow, roffset). With `notify`, the
  /// target's CQ receives a remote_put completion when the data lands
  /// (exactly once, retransmissions deduplicated).
  std::uint32_t put(int peer, int rwindow, std::uint64_t roffset, BytesView data,
                    bool notify = false, std::uint64_t cookie = 0);

  /// Reads `len` bytes from remote (rwindow, roffset) into local
  /// (lwindow, loffset); data is in place when the completion arrives.
  std::uint32_t get(int peer, int rwindow, std::uint64_t roffset, int lwindow,
                    std::uint64_t loffset, std::uint32_t len,
                    std::uint64_t cookie = 0);

  /// Atomically adds `delta` to the u64 at remote (rwindow, roffset);
  /// completion carries the pre-update value.
  std::uint32_t fetch_add(int peer, int rwindow, std::uint64_t roffset,
                          std::uint64_t delta, std::uint64_t cookie = 0);

  /// Atomically replaces the u64 at remote (rwindow, roffset) with
  /// `desired` iff it equals `expected`; completion carries the value read
  /// (swap happened iff value == expected).
  std::uint32_t compare_swap(int peer, int rwindow, std::uint64_t roffset,
                             std::uint64_t expected, std::uint64_t desired,
                             std::uint64_t cookie = 0);

  /// Blocks the calling thread until every posted op has completed (ok or
  /// error). Completions stay on the CQ for the caller to drain.
  void fence();

  CompletionQueue& cq() { return cq_; }

  /// Outstanding (posted, not yet completed) operations.
  int pending() const { return pending_total_; }

  /// Admission credits held right now, summed over every peer — the
  /// telemetry probe for descriptor-ring occupancy.
  int credits_in_use() const { return credits_in_use_; }

  /// Peers holding one-sided state: the ones this engine has posted to or
  /// taken requests from. Never-contacted peers cost nothing.
  std::size_t peer_records() const { return peers_.size(); }

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t fetch_adds = 0;
    std::uint64_t compare_swaps = 0;
    std::uint64_t bytes_put = 0;
    std::uint64_t bytes_got = 0;
    std::uint64_t completions = 0;        // ok completions (initiator side)
    std::uint64_t error_completions = 0;  // retry-exhausted ops
    std::uint64_t retransmits = 0;
    std::uint64_t deferred = 0;      // posts that waited for a credit
    std::uint64_t tx_chunks = 0;     // NIC submissions
    std::uint64_t rx_requests = 0;   // requests executed at this target
    std::uint64_t rx_replays = 0;    // duplicate requests answered from cache
    std::uint64_t rx_garbled = 0;    // undersized/over-declared frames dropped
    std::uint64_t rx_bad_window = 0; // out-of-range window/offset dropped
    std::uint64_t notifies = 0;      // remote_put completions delivered here
  };
  const Stats& stats() const { return stats_; }

  /// Failed completions are also reported here (the node forwards them to
  /// the application's NCS exception handler).
  void set_exception_hook(std::function<void(const mps::NcsException&)> hook) {
    exception_hook_ = std::move(hook);
  }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct PendingOp {
    std::uint32_t op_id = 0;
    OpKind kind = OpKind::put;
    int peer = -1;
    int rwindow = 0;
    std::uint64_t roffset = 0;
    int lwindow = 0;            // get: destination window
    std::uint64_t loffset = 0;  // get: destination offset
    std::uint32_t len = 0;
    std::uint64_t aux = 0;  // fetch_add delta / compare_swap expected
    std::uint64_t cookie = 0;
    bool notify = false;
    Bytes wire;  // full request frame, kept for retransmission
    int retries = 0;
    sim::EventId timer = 0;
    TimePoint posted;
  };

  /// A request parsed at the target, parked for Params::target_exec of
  /// firmware time before execution (FIFO; the deque keeps the scheduled
  /// callback's capture tiny).
  struct RxRequest {
    int p = -1;
    std::uint8_t kind = 0;
    bool notify = false;
    int window = 0;
    std::uint32_t op_id = 0;
    std::uint32_t sync = 0;  // initiator watermark, applied at execution time
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::uint64_t aux = 0;
    Bytes payload;
  };

  /// A loopback op (peer == rank): executed against the local window after
  /// the same firmware delay, no wire involved.
  struct SelfOp {
    PendingOp op;
    Bytes data;
  };

  struct PeerState {
    int credits_used = 0;
    std::uint32_t next_op_id = 1;
    /// Posted-and-sent ops awaiting a response, keyed op id.
    std::map<std::uint32_t, PendingOp> inflight;
    /// Built ops waiting for a credit, FIFO.
    std::deque<PendingOp> deferred;
    /// Target side: reassembly of the peer's request frames (chunks of one
    /// frame arrive back-to-back on the pair's dedicated VC).
    Bytes rx_buf;
    /// Target side: atomic results by op id, replayed on duplicate
    /// requests so retransmitted atomics execute exactly once.
    std::map<std::uint32_t, std::uint64_t> atomic_cache;
    /// Target side: put op ids already notified (exactly-once remote_put).
    std::set<std::uint32_t> notified;
  };

  Bytes build_frame(const PendingOp& op, BytesView payload) const;
  /// Initiator-side trace span + request flow arrow for a just-posted op;
  /// `begin` is when the descriptor build started charging.
  void trace_post(const PendingOp& op, TimePoint begin);
  std::uint32_t post_self(PendingOp op, Bytes data);
  void run_self_op();
  void issue(int p, PendingOp op);
  void arm_timer(int p, std::uint32_t op_id);
  void on_timeout(int p, std::uint32_t op_id);
  void complete(int p, PendingOp op, bool ok, std::uint64_t value);
  void release_credit(int p);

  void enqueue_tx(atm::VcId vc, Bytes frame);
  void tx_step();

  void on_rx(int p, Bytes chunk, bool eom);
  void handle_frame(int p, Bytes frame);
  void execute_request(RxRequest q);
  void send_response(int p, std::uint8_t kind, int window, std::uint32_t op_id,
                     std::uint64_t offset, std::uint64_t aux, BytesView payload);
  void handle_response(int p, std::uint8_t kind, std::uint32_t op_id,
                       std::uint64_t aux, BytesView payload);
  /// Lowest outstanding op id toward `p` — the completion watermark
  /// advertised on every request so the target can prune its caches.
  std::uint32_t sync_watermark(int p) const;

  mts::Scheduler& host_;
  sim::Engine& engine_;
  atm::Nic& nic_;
  int rank_;
  int n_procs_;
  Params params_;

  std::map<int, std::unique_ptr<Window>> windows_;
  PeerMap<PeerState> peers_;  // created on first contact
  int credits_in_use_ = 0;     // sum of every PeerState::credits_used
  CompletionQueue cq_;
  int pending_total_ = 0;
  std::deque<mts::Thread*> fence_waiters_;

  struct TxPacket {
    atm::VcId vc;
    Bytes frame;
  };
  std::deque<TxPacket> txq_;
  std::size_t tx_off_ = 0;
  bool tx_active_ = false;

  std::deque<RxRequest> rx_exec_;  // parked requests awaiting target_exec
  std::deque<SelfOp> self_ops_;    // parked loopback ops

  std::function<void(const mps::NcsException&)> exception_hook_;
  const obs::Hub* obs_;
  obs::Track track_;
  Stats stats_;
};

}  // namespace ncs::rma
