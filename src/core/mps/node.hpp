// NCS per-process runtime — the paper's Fig 8 put together.
//
// Construction is NCS_init(flow, error): it creates the system threads —
// send, receive, and (when the retransmit policy is selected) error
// control — and binds the chosen transport tier (P4Transport for NSM,
// AtmTransport for HSM). Compute threads are user threads created with
// t_create (NCS_t_create).
//
// Paper call flow, reproduced exactly:
//   NCS_send wakes the send thread and blocks the caller; the send thread
//   performs the transfer (flow control, CPU-charged copies, NIC/socket
//   hand-off) and wakes the caller when done. NCS_recv blocks the caller
//   until the receive thread has a matching message; meanwhile every other
//   thread keeps computing — that is the overlap the tables measure.
//
// Flow-control policy code executes on the send/receive system threads
// (the paper draws FC as its own thread; the scheduling consequences are
// identical under cooperative threading). Error control does own a
// dedicated system thread, which performs retransmissions ordered by
// engine timers.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "coll/select.hpp"
#include "common/peer_map.hpp"
#include "core/mps/error_control.hpp"
#include "core/mps/exception.hpp"
#include "core/mps/flow_control.hpp"
#include "core/mps/mailbox.hpp"
#include "core/mps/proto.hpp"
#include "core/mps/transport.hpp"
#include "core/mts/sync.hpp"

namespace ncs::coll {
class Engine;
class OffloadPort;
}

namespace ncs::rma {
class Engine;
}

namespace ncs::mps {

class Node {
 public:
  struct Options {
    FlowControlParams flow;
    ErrorControlParams error;
    /// Same-process sends bypass the transport entirely — threads share
    /// one address space (the paper: "the last communication step is local
    /// among threads and does not involve remote communication"). Only a
    /// memory copy is charged.
    double local_copy_cycles_per_byte = 0.75;
    double local_send_fixed_cycles = 200;
    /// Bound on every blocking receive (zero = wait forever, the paper's
    /// default). With error control `none` over a faulty network this is
    /// what turns a lost message into NcsException(recv_timeout) instead
    /// of a deadlocked run.
    Duration recv_timeout = Duration::zero();
    /// Collective-algorithm selection thresholds and per-op overrides
    /// (cluster configs reach this through ClusterConfig::ncs).
    coll::Params coll;
    /// Point-to-point protocol engine (eager coalescing / rendezvous);
    /// mode `off` (the default) keeps the legacy one-submit-per-message
    /// path bit-identical. See mps/proto.hpp.
    ProtoParams proto;
  };

  /// NCS_init: binds a transport and spawns the system threads.
  /// Observability through `obs`: per-transfer spans (flow-control stalls
  /// and retransmits included) on the "p<rank>/mps/send" trace track and
  /// delivery instants on "p<rank>/mps/recv", each data message carrying a
  /// Chrome flow pair (id = msg_flow_id) so Perfetto draws an arrow from
  /// the send span to the recv span on the destination host; every data
  /// message's lifecycle (enqueue/dequeue/admit/handoff/deliver/wakeup)
  /// stamped into the profiler (control traffic — acks, barrier tokens,
  /// which reuse seq 0 — is not); and every typed NcsException upcall
  /// (recv timeout, frame error, one-sided failure) or error-control
  /// give-up *triggers* the flight recorder — the first failure in the run
  /// dumps the snapshot — without disturbing the application's handler.
  Node(mts::Scheduler& host, int rank, int n_procs, std::unique_ptr<Transport> transport,
       Options options, const obs::Hub& obs = obs::Hub::off());
  ~Node();

  int rank() const { return rank_; }
  int n_procs() const { return n_procs_; }
  mts::Scheduler& host() { return host_; }
  Transport& transport() { return *transport_; }

  // --- thread services (NCS_t_create / NCS_block / NCS_unblock) ---

  /// Creates a user (compute) thread; returns its logical NCS thread id
  /// (0, 1, ... in creation order — the paper's THREAD1/THREAD2).
  int t_create(std::function<void()> body, int priority = mts::kDefaultPriority,
               std::string name = {});

  mts::Thread* user_thread(int tid);

  /// NCS_block: blocks the calling thread until NCS_unblock(tid).
  void block();
  void unblock(int tid);

  // --- message passing (thread context only) ---

  /// NCS_send: from_process is implicitly this node's rank.
  void send(int from_thread, int to_thread, int to_process, BytesView data);

  /// NCS_recv: blocks until a message matching the pattern arrives.
  /// from_thread/from_process accept kAnyThread/kAnyProcess wildcards;
  /// the actual source is reported through the optional out-params.
  Bytes recv(int from_thread, int from_process, int to_thread,
             int* src_thread = nullptr, int* src_process = nullptr);

  /// NCS_bcast: one send per listed endpoint (1-to-many group primitive).
  void bcast(int from_thread, std::span<const Endpoint> destinations, BytesView data);

  /// Non-blocking probe for a matching pending message.
  bool available(int from_thread, int from_process, int to_thread) const;

  /// Cross-process barrier; every process must call it once per phase
  /// (from any one of its threads). Dissemination algorithm at scale,
  /// flat rank-0 convergecast for small groups (coll::select).
  void barrier();

  // --- group communication (paper Section 3.1: 1-to-many, many-to-1,
  //     many-to-many). Collectives: every process calls the same operation
  //     in the same order, each from one thread. All of them delegate to
  //     the coll::Engine, which picks flat/tree/ring per call from the
  //     payload size and group size (Options::coll overrides). ---

  /// many-to-1: every process contributes; the root receives all
  /// contributions indexed by rank (its own included). Non-roots get {}.
  std::vector<Bytes> gather(int root, BytesView contribution);

  /// 1-to-many: the root supplies one payload per rank (size n_procs);
  /// every process returns its own slice. Non-roots pass {}.
  Bytes scatter(int root, std::span<const Bytes> payloads);

  /// 1-to-many collective broadcast: the root's payload lands on every
  /// rank (the endpoint-list bcast above is the paper's thread-addressed
  /// primitive; this is the group-plane collective).
  Bytes bcast(int root, BytesView payload);

  /// many-to-many: everyone exchanges with everyone; returns the payloads
  /// indexed by source rank (own contribution included).
  std::vector<Bytes> all_to_all(BytesView contribution);

  /// many-to-many: every rank returns all contributions indexed by source
  /// rank (ring or flat per coll::select).
  std::vector<Bytes> allgather(BytesView contribution);

  /// many-to-1 reduction: element-wise sum of equal-length double vectors
  /// at the root (empty elsewhere).
  std::vector<double> reduce_sum(int root, std::span<const double> values);

  /// many-to-many reduction: every rank gets the element-wise sum
  /// (recursive doubling for small payloads, chunk-pipelined ring for
  /// large ones).
  std::vector<double> allreduce_sum(std::span<const double> values);

  /// Rank r returns coll::segment_of(n, n_procs, r) of the element-wise
  /// sum — the ring allreduce's first half as a standalone op.
  std::vector<double> reduce_scatter_sum(std::span<const double> values);

  /// The collective engine (algorithm_for introspection, Params).
  coll::Engine& coll() { return *coll_; }

  /// Attaches the NIC-offload port (must be uniform across the group —
  /// see coll::Engine::set_offload). The port's lifetime is the caller's
  /// problem; the cluster harness owns one per node.
  void set_coll_offload(coll::OffloadPort* port);

  // --- one-sided plane (src/rma; optional, attached by the harness) ---

  /// Attaches the one-sided engine; also routes its failed completions
  /// into this node's exception handler.
  void set_rma(rma::Engine* engine);
  bool has_rma() const { return rma_ != nullptr; }
  /// The one-sided engine; asserts one is attached (cluster configs enable
  /// it with `rma_enabled`).
  rma::Engine& rma();

  // --- exception handling (paper Section 3.1, fourth service class) ---

  /// Failure kinds surfaced by the runtime (see exception.hpp; blocking
  /// calls additionally *throw* NcsException so threads never hang).
  using Exception = NcsExceptionKind;

  /// Handler invoked from system context (must not block) when the runtime
  /// detects a delivery failure: (kind, peer process, sequence or 0).
  using ExceptionHandler = std::function<void(Exception, int, std::uint32_t)>;
  void set_exception_handler(ExceptionHandler handler) {
    exception_handler_ = std::move(handler);
  }

  struct Stats {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t bcasts = 0;
    /// Collective operations entered (gather/scatter/bcast/barrier/...).
    std::uint64_t collectives = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t local_deliveries = 0;
    /// NcsExceptions thrown into application threads (recv timeouts).
    std::uint64_t exceptions = 0;
    /// User threads that terminated by NcsException instead of returning.
    std::uint64_t threads_aborted = 0;
  };
  const Stats& stats() const { return stats_; }
  const FlowControl& flow_control() const { return fc_; }
  const ErrorControl& error_control() const { return ec_; }
  const ProtoEngine& proto() const { return *proto_; }
  /// Destinations this node has sent to (sequence counters held).
  std::size_t peer_records() const { return next_seq_.size(); }

  /// Registers node + flow/error-control counters under `prefix`
  /// (e.g. "p0/mps" yields "p0/mps/sends", "p0/mps/flow/window_stalls", ...).
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;


 private:
  struct SendRequest {
    Message msg;
    mts::Event* done;    // null for fire-and-forget (bcast fan-out tail)
    int flush_dst = -1;  // >= 0: flush-timeout marker, msg is empty
  };

  void send_thread_main();
  void recv_thread_main();
  void ec_thread_main();
  /// Mailbox receive under the configured timeout; counts and reports the
  /// exception before rethrowing it into the calling thread.
  Message recv_matching(const Pattern& pattern);
  void submit_locked(const Message& msg);
  void send_ack_for(const Message& msg, bool credit);
  void handle_control(const Message& msg);
  /// Receive-side hand-off to the mailbox (trace instant + profiler
  /// deliver stamp) — shared by the legacy path and the protocol engine.
  void deliver_from_network(Message msg);

  mts::Scheduler& host_;
  int rank_;
  int n_procs_;
  std::unique_ptr<Transport> transport_;
  Options options_;

  Mailbox mailbox_;
  mts::Mutex submit_mutex_;
  mts::Channel<SendRequest> send_queue_;
  mts::Channel<Message> retx_queue_;
  FlowControl fc_;
  ErrorControl ec_;
  std::unique_ptr<ProtoEngine> proto_;

  ExceptionHandler exception_handler_;

  /// Collective-plane send/recv (endpoint kCollectiveThread). `wait=false`
  /// only queues the transfer so fan-outs pipeline; `wait=true` blocks
  /// until the transport hand-off (NCS_send semantics).
  void collective_send(int to_process, BytesView data, bool wait);
  Bytes collective_recv(int from_process);

  /// Adapts this node's collective plane to coll::Fabric.
  struct CollFabric;
  std::unique_ptr<CollFabric> coll_fabric_;
  std::unique_ptr<coll::Engine> coll_;
  rma::Engine* rma_ = nullptr;  // not owned (lives beside the node)

  /// Guards every public collective entry point: thread-context check and
  /// the collectives stat.
  void enter_collective();

  PeerMap<std::uint32_t> next_seq_;  // per destination process, on first send
  std::vector<mts::Thread*> user_threads_;

  /// Recv-side trace span + flow end + profiler wakeup stamp for a message
  /// just returned to the application; `wait_began` is when the receive
  /// call started blocking.
  void note_received(const Message& msg, TimePoint wait_began);
  /// Records a failure on this node into the flight recorder (when on).
  void trigger_recorder(obs::FlightRecorder::EntryKind kind, const std::string& what, int peer,
                        std::uint32_t seq);

  const obs::Hub* obs_;
  obs::Track send_track_;
  obs::Track recv_track_;

  Stats stats_;
};

}  // namespace ncs::mps
