// NIC-resident combine/forward collectives, modeled as i960 firmware.
//
// The Quadrics/Myrinet NIC-barrier result: a combining tree run by the
// adapters beats any host-level algorithm, because interior hops never wake
// a host thread. This module reproduces that on the SBA-200 model: a
// collective context programmed per group (parent/children in a radix-k
// tree rooted at rank 0, expected arity) plus a per-operation state table
// keyed by sequence number. Contribution PDUs arrive on the kCollVciBase
// plane, terminate in firmware (Nic::set_firmware_range — no RX DMA, no
// upcall), are folded in firmware time on a dedicated execution unit, and
// one combined PDU is forwarded upstream via Nic::firmware_tx (sharing the
// SAR engine with host traffic). Only the final result crosses the SBus.
//
// Operation kinds:
//   barrier    empty contributions; arity-only combine.
//   allreduce  packed-doubles contributions; elementwise sum folded in the
//              offload tree order (own, then children ascending) so the
//              host fallback (coll::tree_fold) is bit-identical.
//   bcast      root-0 push: the root's contribution is forwarded straight
//              down the tree; non-roots contribute nothing.
//
// Fault story: there is no firmware-level retransmission. A lost cell
// (LinkFault/SwitchFault/corruption) stalls the operation; the host times
// out, abort_op() drops the partial accumulation and raises the
// fallen-back floor so *late* traffic for that sequence — a straggling
// contribution or a result that was already in flight — is counted and
// dropped instead of double-contributing into a restarted operation.
// teardown()/program() model SVC-style context re-establishment.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "atm/nic.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace ncs::atm {

enum class CollKind : std::uint8_t { barrier = 0, allreduce = 1, bcast = 2 };

struct NicCollParams {
  /// Host doorbell -> firmware visibility of a local contribution.
  Duration doorbell = Duration::microseconds(2);
  /// Firmware context-table lookup per arriving PDU.
  Duration context_lookup = Duration::nanoseconds(300);
  /// Firmware fold cost per 48-byte cell of contribution payload.
  Duration combine_per_cell = Duration::nanoseconds(900);
};

class NicCollEngine {
 public:
  /// Host completion upcall: fires once per completed operation, after the
  /// adapter->host RX DMA of the result (empty for barrier).
  using CompletionHandler = std::function<void(std::uint64_t seq, Bytes result)>;

  /// Reports through the adapter's hub (nic.obs()): context instants on
  /// the "p<rank>/nic_coll" trace track, firmware fold work into
  /// Layer::nic_coll.
  NicCollEngine(sim::Engine& engine, Nic& nic, NicCollParams params,
                std::string name = "nic-coll");

  /// Arms the context: programs parent/children VCs and expected arity for
  /// `rank` in a group of `n_procs`, on a combine tree of `radix`.
  void program(int rank, int n_procs, int radix);
  /// Drops the context and every pending accumulation (SVC teardown).
  void teardown();
  bool armed() const { return armed_; }

  /// Host injects its own contribution for operation `seq` (doorbell +
  /// firmware visibility delay). For bcast only rank 0 contributes.
  void contribute(std::uint64_t seq, CollKind kind, Bytes own);

  /// Abandons `seq`: erases its partial accumulation and raises the
  /// fallen-back floor so late traffic for it is dropped, never folded
  /// into a restarted operation.
  void abort_op(std::uint64_t seq);

  void set_completion(CompletionHandler h) { completion_ = std::move(h); }

  struct Stats {
    std::uint64_t programs = 0;
    std::uint64_t teardowns = 0;
    std::uint64_t combines = 0;     // child contributions folded
    std::uint64_t forwards = 0;     // firmware sends (up + down the tree)
    std::uint64_t completions = 0;  // host completion upcalls delivered
    std::uint64_t aborts = 0;
    std::uint64_t late_drops = 0;   // PDUs/doorbells for aborted or done seqs
  };
  const Stats& stats() const { return stats_; }
  /// Open per-operation accumulations — the leak-census probe.
  std::size_t pending_ops() const { return pending_.size(); }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Pending {
    CollKind kind = CollKind::barrier;
    bool have_own = false;
    Bytes own;
    std::map<int, Bytes> children;  // child rank -> folded subtree payload
  };

  void process(int src, Bytes pdu);
  void try_fire(std::uint64_t seq, Pending& p);
  void complete(std::uint64_t seq, CollKind kind, Bytes result, bool forward_down);
  void send(int dst, std::uint8_t msgkind, CollKind kind, std::uint64_t seq,
            BytesView payload);
  void drop_late(const char* what);
  /// Firmware instant on this adapter's "p<rank>/nic_coll" trace track.
  void trace_instant(const char* what, const char* detail = "");

  sim::Engine& engine_;
  Nic& nic_;
  NicCollParams params_;
  std::string name_;

  bool armed_ = false;
  int rank_ = -1;
  int n_procs_ = 0;
  int parent_ = -1;
  std::vector<int> children_;

  /// Sequences below this are aborted or completed; their traffic drops.
  std::uint64_t floor_ = 0;
  std::map<std::uint64_t, Pending> pending_;

  /// The firmware collective execution unit: one fold/lookup at a time.
  sim::SerialResource fw_;

  CompletionHandler completion_;
  obs::Track track_{-1, "/nic_coll"};  // "p<rank>/nic_coll" once programmed
  Stats stats_;
};

}  // namespace ncs::atm
