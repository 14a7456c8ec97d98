#include "atm/nic_coll.hpp"

#include <utility>

#include "atm/network.hpp"
#include "coll/algorithms.hpp"
#include "coll/offload.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::atm {

namespace {

// Wire format of one firmware PDU: [u8 msgkind][u8 opkind][u64 seq][payload].
constexpr std::uint8_t kContribution = 0;  // child -> parent, folded subtree
constexpr std::uint8_t kResult = 1;        // parent -> child, final result
constexpr std::size_t kHeader = 10;

}  // namespace

NicCollEngine::NicCollEngine(sim::Engine& engine, Nic& nic, NicCollParams params,
                             std::string name)
    : engine_(engine), nic_(nic), params_(params), name_(std::move(name)) {
  // Terminate the whole collective VC plane in firmware. Charging happens
  // here, at reassembly time: one context lookup plus the per-cell fold
  // cost, serialized on the collective execution unit.
  nic_.set_firmware_range(kCollVciBase, kRmaVciBase,
                          [this](VcId vc, Bytes pdu, bool /*eom*/) {
                            const int src = coll_src_of(vc);
                            const Duration work =
                                params_.context_lookup +
                                params_.combine_per_cell *
                                    static_cast<std::int64_t>(1 + pdu.size() / 48);
                            const TimePoint done = fw_.occupy(engine_.now(), work);
                            if (obs::Profiler* prof = nic_.obs().prof; prof != nullptr)
                              prof->record(obs::Layer::nic_coll, work);
                            engine_.schedule_at(done, [this, src, p = std::move(pdu)]() mutable {
                              process(src, std::move(p));
                            });
                          });
}

void NicCollEngine::program(int rank, int n_procs, int radix) {
  NCS_ASSERT(rank >= 0 && rank < n_procs);
  rank_ = rank;
  track_ = obs::Track(rank, "/nic_coll");
  n_procs_ = n_procs;
  parent_ = coll::offload_parent(rank, radix);
  children_ = coll::offload_children(rank, n_procs, radix);
  armed_ = true;
  ++stats_.programs;
  trace_instant("program");
}

void NicCollEngine::teardown() {
  if (!armed_) return;
  armed_ = false;
  pending_.clear();
  ++stats_.teardowns;
  trace_instant("teardown");
}

void NicCollEngine::trace_instant(const char* what, const char* detail) {
  if (obs::TraceLog* trace = nic_.obs().trace; trace != nullptr)
    trace->instant(track_.id(*trace), std::string(what) + detail, "nic_coll", engine_.now());
}

void NicCollEngine::drop_late(const char* what) {
  ++stats_.late_drops;
  trace_instant("late-drop ", what);
}

void NicCollEngine::contribute(std::uint64_t seq, CollKind kind, Bytes own) {
  NCS_ASSERT_MSG(armed_, "contribute on an unarmed collective context");
  // Non-root bcast ranks have nothing to push: the result arrives
  // downstream. Opening a pending slot here would fire arity-0 combines.
  if (kind == CollKind::bcast && parent_ >= 0) return;
  const TimePoint visible = fw_.occupy(engine_.now(), params_.doorbell);
  engine_.schedule_at(visible, [this, seq, kind, own = std::move(own)]() mutable {
    if (!armed_ || seq < floor_) {
      drop_late("doorbell");
      return;
    }
    Pending& p = pending_[seq];
    p.kind = kind;
    p.have_own = true;
    p.own = std::move(own);
    try_fire(seq, p);
  });
}

void NicCollEngine::abort_op(std::uint64_t seq) {
  pending_.erase(seq);
  if (seq >= floor_) floor_ = seq + 1;
  ++stats_.aborts;
  trace_instant("abort");
}

void NicCollEngine::process(int src, Bytes pdu) {
  if (pdu.size() < kHeader) {
    NCS_WARN("atm.nic_coll", "%s: runt collective PDU (%zu bytes)", name_.c_str(), pdu.size());
    return;
  }
  ByteReader r(pdu);
  const std::uint8_t msgkind = r.u8();
  const auto kind = static_cast<CollKind>(r.u8());
  const std::uint64_t seq = r.u64();
  Bytes payload = to_bytes(r.bytes(r.remaining()));

  if (!armed_ || seq < floor_) {
    drop_late(msgkind == kContribution ? "contribution" : "result");
    return;
  }

  if (msgkind == kContribution) {
    Pending& p = pending_[seq];
    p.kind = kind;
    NCS_ASSERT_MSG(p.children.find(src) == p.children.end(),
                   "duplicate contribution from one child");
    p.children[src] = std::move(payload);
    ++stats_.combines;
    try_fire(seq, p);
    return;
  }

  // Result from the parent: forward down, hand to the host, close the op.
  complete(seq, kind, std::move(payload), /*forward_down=*/true);
}

void NicCollEngine::try_fire(std::uint64_t seq, Pending& p) {
  const bool need_children = p.kind != CollKind::bcast;
  if (!p.have_own) return;
  if (need_children && p.children.size() < children_.size()) return;

  Bytes result;
  if (p.kind == CollKind::allreduce) {
    // The canonical offload fold order: own first, then children ascending
    // (std::map iterates ascending) — matched by coll::tree_fold.
    std::vector<double> acc = coll::unpack_doubles(p.own);
    for (const auto& [child, bytes] : p.children) {
      (void)child;
      coll::accumulate_doubles(acc, bytes);
    }
    result = coll::pack_doubles(acc);
  } else if (p.kind == CollKind::bcast) {
    result = std::move(p.own);
  }  // barrier: empty result

  if (parent_ < 0) {
    complete(seq, p.kind, std::move(result), /*forward_down=*/true);
  } else {
    // Interior/leaf: one folded PDU upstream, then this op's state is done
    // here until the result comes back down.
    send(parent_, kContribution, p.kind, seq, result);
    pending_.erase(seq);
  }
}

void NicCollEngine::complete(std::uint64_t seq, CollKind kind, Bytes result,
                             bool forward_down) {
  if (forward_down)
    for (const int c : children_) send(c, kResult, kind, seq, result);
  pending_.erase(seq);
  if (seq >= floor_) floor_ = seq + 1;
  ++stats_.completions;
  trace_instant("complete");
  // Only the final result crosses the SBus: RX DMA, then the upcall.
  const TimePoint done = nic_.rx_dma_delay(result.size());
  if (completion_)
    engine_.schedule_at(done, [this, seq, r = std::move(result)]() mutable {
      completion_(seq, std::move(r));
    });
}

void NicCollEngine::send(int dst, std::uint8_t msgkind, CollKind kind, std::uint64_t seq,
                         BytesView payload) {
  Bytes pdu(kHeader + payload.size());
  ByteWriter w(pdu);
  w.u8(msgkind);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(seq);
  w.bytes(payload);
  ++stats_.forwards;
  nic_.firmware_tx(coll_vc_to(dst), std::move(pdu));
}

void NicCollEngine::register_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  reg.counter(prefix + "/programs", &stats_.programs);
  reg.counter(prefix + "/teardowns", &stats_.teardowns);
  reg.counter(prefix + "/combines", &stats_.combines);
  reg.counter(prefix + "/forwards", &stats_.forwards);
  reg.counter(prefix + "/completions", &stats_.completions);
  reg.counter(prefix + "/aborts", &stats_.aborts);
  reg.counter(prefix + "/late_drops", &stats_.late_drops);
}

}  // namespace ncs::atm
