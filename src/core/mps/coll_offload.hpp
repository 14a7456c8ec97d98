// NicCollPort: the bridge between coll::Engine and the adapter's
// combine/forward contexts (atm/nic_coll), plus the fallback plane that
// keeps offloaded collectives correct under faults.
//
// The offload data path has no retransmission: a LinkFault burst or a
// mid-operation SwitchFault strands the combine tree, and every stranded
// rank times out in await(). Recovery must be decentralized — some ranks
// may already have completed through the NIC and will never look back — so
// each node runs a tiny always-on fetch server (system thread, reserved
// endpoints kCollFetchThread/kCollFetchReplyThread) serving a retained
// window of original contributions over the *reliable* message plane.
// A fallen-back rank aborts the NIC state (raising the fallen-back floor
// so late cells cannot double-contribute), fetches every peer's original
// contribution, and refolds them with coll::tree_fold — bit-identical to
// the firmware result by construction. Fetch requests for a sequence the
// server has not begun yet are parked until begin() reaches it, which is
// what preserves barrier semantics across a fallback.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "atm/nic_coll.hpp"
#include "coll/offload.hpp"
#include "core/mps/node.hpp"

namespace ncs::mps {

class NicCollPort final : public coll::OffloadPort {
 public:
  /// Builds the firmware engine on `nic` and spawns this node's fetch
  /// server. Selection thresholds and the offload timeout come from the
  /// node's coll::Params, and so does the firmware tree's radix
  /// (coll::Params::offload_radix).
  NicCollPort(Node& node, atm::Nic& nic, atm::NicCollParams nic_params);

  // --- coll::OffloadPort ---
  void begin(std::uint64_t seq, coll::Op op, BytesView own) override;
  std::optional<Bytes> await(std::uint64_t seq) override;
  void abort(std::uint64_t seq) override;
  Bytes fetch(std::uint64_t seq, int rank) override;

  /// The firmware half (tests: census, stats, teardown injection).
  atm::NicCollEngine& engine() { return engine_; }
  const atm::NicCollEngine& engine() const { return engine_; }

  int rank() const { return node_.rank(); }

  struct Stats {
    std::uint64_t rearms = 0;            // contexts (re)programmed by begin()
    std::uint64_t fallbacks = 0;         // awaits that timed out
    std::uint64_t fetches_served = 0;
    std::uint64_t fetches_parked = 0;    // requests ahead of our begin()
    std::uint64_t late_completions = 0;  // NIC completions after an abort
  };
  const Stats& stats() const { return stats_; }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Waiter {
    mts::Thread* thread;
    Bytes result;
    bool filled = false;
    bool timed_out = false;
  };

  /// Contributions retained for peers' fetches. Bounds a root's run-ahead
  /// over a stranded rank: a fetch outside the window assert-stops rather
  /// than deadlocking the requester (keep offload timeouts well under
  /// window x per-op time; see DESIGN.md section 10).
  static constexpr std::uint64_t kRetainWindow = 1024;

  void server_main();
  void serve(int requester, std::uint64_t seq);
  void on_complete(std::uint64_t seq, Bytes result);

  Node& node_;
  mts::Scheduler& host_;
  atm::NicCollEngine engine_;
  Duration timeout_;

  std::map<std::uint64_t, Bytes> retained_;
  std::uint64_t begun_ = 0;  // next sequence begin() has not reached yet
  std::multimap<std::uint64_t, int> parked_;

  /// Sequences below this are resolved (completed or fallen back); their
  /// completions are late and must be dropped, exactly-once.
  std::uint64_t resolved_floor_ = 0;
  std::map<std::uint64_t, Waiter*> waiters_;
  std::map<std::uint64_t, Bytes> completed_;  // completions that beat await()

  Stats stats_;
};

}  // namespace ncs::mps
