// The paper-app harness: the steps every driver in drivers.hpp shares.
//
// A driver is one app body run on every rank. The harness builds the
// cluster with the drivers' process rule, binds one stack, hands each rank
// a Comm, and fills the AppResult's makespan and runtime counters; the
// driver adds its own verification (correct, result_hash).
//
// Comm is what lets one body serve both of the paper's programs. p4 (Figs
// 13, 19) addresses a message by p4 type and process; NCS_MTS/p4 (Figs 14,
// 17/18, 20/21) by (thread, process) endpoint. A body names all three and
// each stack matches on the fields it knows. workers() runs a body's
// per-thread part inline on the main fiber under p4, whose processes have
// one thread, and as NCS threads under NCS.
#pragma once

#include <functional>
#include <string>

#include "cluster/drivers.hpp"

namespace ncs::cluster {

enum class Stack {
  p4,   ///< init_p4: plain p4 over TCP, one thread per process
  nsm,  ///< init_ncs_nsm: NCS_MTS over p4 (the paper's benchmarked mode)
  hsm,  ///< init_ncs_hsm: NCS on the ATM API
  /// The paper's one-node rows: one workstation, no message traffic;
  /// workers are plain host threads.
  one_node,
  /// A one-node row that still boots NCS/NSM, whose system threads share
  /// the CPU with the workers (Table 1's NCS row).
  one_node_nsm,
};

Stack ncs_stack(NcsTier tier);

/// A message address under both stacks: p4 matches on (type, proc), NCS on
/// (thread, proc). On receive, thread and proc accept the kAny* wildcards.
struct Addr {
  int type;
  int thread;
  int proc;
};

/// One rank's view of the run.
class Comm {
 public:
  Comm(Cluster& cluster, Stack stack, int rank)
      : cluster_(cluster), stack_(stack), rank_(rank) {}

  int rank() const { return rank_; }
  mts::Scheduler& host() { return cluster_.host(rank_); }
  /// The rank's NCS node (NCS stacks only), for the collective bodies.
  mps::Node& node() { return cluster_.node(rank_); }

  void send(int from_thread, Addr to, BytesView data);
  Bytes recv(Addr from, int to_thread);

  /// Runs body(t) for t in [0, n) as threads named name+t and joins them.
  /// Worker 0 runs at `lead_priority`, the rest at the default. Under p4
  /// (n must be 1), and for a one-node row's single worker, body(0) runs
  /// inline on the calling fiber.
  void workers(int n, const std::string& name, int lead_priority,
               const std::function<void(int)>& body);

 private:
  Cluster& cluster_;
  Stack stack_;
  int rank_;
};

using RankBody = std::function<void(Comm&)>;

/// Host rank 0 plus `nodes` node ranks (one rank for the one-node stacks).
AppResult run_hosted(ClusterConfig base, int nodes, Stack stack, const RankBody& body);

/// `nodes` peer ranks on an NCS stack, no separate host (the *_coll drivers).
AppResult run_spmd(ClusterConfig base, int nodes, NcsTier tier, const RankBody& body);

}  // namespace ncs::cluster
