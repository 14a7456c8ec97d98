// p4-compatible message passing substrate (Butler & Lusk, Argonne).
//
// The paper's baseline and the foundation of NCS_MPS "approach 1". The
// primitives the paper's pseudocode uses are implemented with p4 semantics:
//
//   p4_send(type, dst, data)              -> Process::send
//   p4_recv(&type, &from, &data, &size)   -> Process::recv (in/out wildcards)
//   p4_messages_available(&type, &from)   -> Process::messages_available
//   p4_broadcast / p4_global_barrier      -> broadcast / global_barrier
//
// Transport: one TCP stream per ordered process pair over the cluster's
// network (shared Ethernet or IP-over-ATM) — exactly the socket mesh real
// p4 establishes at p4_create_procgroup time.
//
// Blocking semantics matter: recv blocks the *calling green thread*. For a
// plain p4 application (one thread per process) that blocks the whole
// process, which is precisely the behaviour NCS's multithreading removes —
// an NCS receive system thread calling the same recv blocks only itself.
//
// CPU cost accounting (proto::CostModel): send charges syscall + socket
// copy + per-segment TCP processing before the data enters the stream;
// recv charges the same on consumption. The paper's Fig 3(a) five
// bus-accesses-per-word path.
#pragma once

#include <list>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "core/mts/scheduler.hpp"
#include "proto/costs.hpp"
#include "proto/tcp.hpp"

namespace ncs::p4 {

inline constexpr int kAnyType = -1;
inline constexpr int kAnyProc = -1;

/// Message types at or above this value are reserved for p4 internals
/// (barrier protocol); user sends must stay below.
inline constexpr int kInternalTypeBase = 1 << 30;

class Runtime;

class Process {
 public:
  int my_id() const { return rank_; }
  int num_procs() const;
  mts::Scheduler& host() { return host_; }

  /// Blocking typed send (blocks the calling green thread for the CPU cost
  /// of the socket path; wire transfer proceeds asynchronously).
  void send(int type, int dst, BytesView data);

  /// Blocking typed receive. On entry *type/*from may be kAnyType/kAnyProc
  /// wildcards; on return they hold the matched message's type and sender.
  Bytes recv(int* type, int* from);

  /// Non-blocking probe with the same wildcard semantics; fills *type and
  /// *from on a hit.
  bool messages_available(int* type, int* from);

  /// Sends to every other process.
  void broadcast(int type, BytesView data);

  /// All processes must call; returns when all have arrived.
  void global_barrier();

  struct Stats {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Runtime;

  struct Entry {
    int type;
    int from;
    Bytes data;
  };

  struct Waiter {
    int type;
    int from;
    mts::Thread* thread;
    bool filled = false;
    Entry entry;
  };

  Process(Runtime& rt, mts::Scheduler& host, int rank)
      : rt_(rt), host_(host), rank_(rank) {}

  static bool matches(const Waiter& w, const Entry& e) {
    return (w.type == kAnyType || w.type == e.type) &&
           (w.from == kAnyProc || w.from == e.from);
  }

  void on_stream_bytes(int src, BytesView data);
  void dispatch(Entry entry);
  Entry recv_internal(int type);          // barrier machinery: exact-type wait
  void send_internal(int type, int dst);  // barrier machinery: empty payload

  Runtime& rt_;
  mts::Scheduler& host_;
  int rank_;

  std::list<Entry> inbox_;           // user messages
  std::list<Entry> internal_inbox_;  // barrier protocol messages
  std::list<Waiter*> waiters_;
  std::list<Waiter*> internal_waiters_;
  std::vector<Bytes> partial_;  // per-source stream reassembly buffers

  Stats stats_;
};

class Runtime {
 public:
  /// hosts[r] is the scheduler (workstation) running process rank r; the
  /// TCP mesh reports to `obs`.
  Runtime(sim::Engine& engine, std::vector<mts::Scheduler*> hosts,
          proto::SegmentNetwork& net, proto::TcpParams tcp = {},
          proto::CostModel costs = {}, const obs::Hub& obs = obs::Hub::off());

  int n_procs() const { return static_cast<int>(procs_.size()); }
  Process& process(int rank) { return *procs_[static_cast<std::size_t>(rank)]; }

  proto::TcpMesh& mesh() { return mesh_; }
  const proto::CostModel& costs() const { return costs_; }

 private:
  friend class Process;

  sim::Engine& engine_;
  proto::CostModel costs_;
  proto::TcpMesh mesh_;
  std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace ncs::p4
