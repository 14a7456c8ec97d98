#include "core/mps/coll_offload.hpp"

#include <utility>

#include "coll/engine.hpp"
#include "common/assert.hpp"
#include "core/mps/message.hpp"

namespace ncs::mps {

namespace {

atm::CollKind kind_of(coll::Op op) {
  switch (op) {
    case coll::Op::barrier: return atm::CollKind::barrier;
    case coll::Op::allreduce: return atm::CollKind::allreduce;
    case coll::Op::bcast: return atm::CollKind::bcast;
    default: break;
  }
  NCS_ASSERT_MSG(false, "op has no NIC-offload implementation");
  return atm::CollKind::barrier;
}

}  // namespace

NicCollPort::NicCollPort(Node& node, atm::Nic& nic, atm::NicCollParams nic_params)
    : node_(node),
      host_(node.host()),
      engine_(node.host().engine(), nic, nic_params,
              "nic-coll" + std::to_string(node.rank())),
      timeout_(Duration::microseconds(
          static_cast<double>(node.coll().params().offload_timeout_us))) {
  engine_.set_completion(
      [this](std::uint64_t seq, Bytes result) { on_complete(seq, std::move(result)); });
  host_.spawn([this] { server_main(); },
              {.name = "ncs-collfetch", .priority = 1, .cls = mts::ThreadClass::system});
}

void NicCollPort::begin(std::uint64_t seq, coll::Op op, BytesView own) {
  // Retain first: peers may already be fetching this sequence, and the
  // retained copy must exist before any reply can race ahead of the NIC op.
  retained_[seq] = to_bytes(own);
  begun_ = seq + 1;
  while (retained_.size() > kRetainWindow) retained_.erase(retained_.begin());
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->first <= seq) {
      serve(it->second, it->first);
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  // Lazy (re-)arm: a prior fault tore the context down with the SVC; the
  // next operation re-establishes it before contributing.
  if (!engine_.armed()) {
    engine_.program(node_.rank(), node_.n_procs(), node_.coll().params().offload_radix);
    ++stats_.rearms;
  }
  engine_.contribute(seq, kind_of(op), to_bytes(own));
}

std::optional<Bytes> NicCollPort::await(std::uint64_t seq) {
  // Same on-demand progress pull as the blocking receives: completion
  // events only advance if something runs the planes.
  host_.progress_hint();
  if (const auto it = completed_.find(seq); it != completed_.end()) {
    Bytes r = std::move(it->second);
    completed_.erase(it);
    return r;
  }
  Waiter w{host_.current()};
  waiters_[seq] = &w;
  const sim::EventId timer = host_.engine().schedule_after(timeout_, [this, seq] {
    const auto it = waiters_.find(seq);
    if (it == waiters_.end() || it->second->filled) return;
    Waiter* stalled = it->second;
    waiters_.erase(it);
    stalled->timed_out = true;
    host_.unblock(stalled->thread);
  });
  while (!w.filled && !w.timed_out) host_.block(sim::Activity::communicate);
  if (w.timed_out) {
    ++stats_.fallbacks;
    return std::nullopt;
  }
  host_.engine().cancel(timer);
  return std::move(w.result);
}

void NicCollPort::abort(std::uint64_t seq) {
  // Drop the partial accumulation *and* condemn the context: the fault
  // that stalled this op likely took a circuit with it. The floor makes
  // any completion already in flight across the RX DMA a counted late
  // drop instead of a phantom result for a restarted operation.
  if (seq >= resolved_floor_) resolved_floor_ = seq + 1;
  engine_.abort_op(seq);
  engine_.teardown();
}

Bytes NicCollPort::fetch(std::uint64_t seq, int rank) {
  NCS_ASSERT(rank != node_.rank());
  Bytes req(8);
  ByteWriter w(req);
  w.u64(seq);
  node_.send(kCollFetchThread, kCollFetchThread, rank, req);
  const Bytes rep = node_.recv(kCollFetchReplyThread, rank, kCollFetchReplyThread);
  ByteReader r(rep);
  const std::uint64_t got = r.u64();
  NCS_ASSERT_MSG(got == seq, "fetch replies arrived out of order");
  return to_bytes(r.bytes(r.remaining()));
}

void NicCollPort::on_complete(std::uint64_t seq, Bytes result) {
  if (seq < resolved_floor_) {
    ++stats_.late_completions;
    return;
  }
  resolved_floor_ = seq + 1;  // exactly-once, even against duplicate upcalls
  const auto it = waiters_.find(seq);
  if (it == waiters_.end()) {
    completed_[seq] = std::move(result);
    return;
  }
  Waiter* w = it->second;
  waiters_.erase(it);
  w->result = std::move(result);
  w->filled = true;
  host_.unblock(w->thread);
}

void NicCollPort::server_main() {
  for (;;) {
    int src_process = -1;
    Bytes req;
    try {
      req = node_.recv(kCollFetchThread, kAnyProcess, kCollFetchThread, nullptr,
                       &src_process);
    } catch (const NcsException&) {
      // A configured recv timeout on an idle server is not an error;
      // keep serving.
      continue;
    }
    ByteReader r(req);
    const std::uint64_t seq = r.u64();
    if (seq >= begun_) {
      // The requester is falling back on an operation we have not reached:
      // park until our begin() gets there (this is what makes a fallen-back
      // barrier still wait for every rank's arrival).
      parked_.emplace(seq, src_process);
      ++stats_.fetches_parked;
      continue;
    }
    serve(src_process, seq);
  }
}

void NicCollPort::serve(int requester, std::uint64_t seq) {
  const auto it = retained_.find(seq);
  NCS_ASSERT_MSG(it != retained_.end(),
                 "fetch outside the retained contribution window");
  Bytes rep(8 + it->second.size());
  ByteWriter w(rep);
  w.u64(seq);
  w.bytes(it->second);
  node_.send(kCollFetchReplyThread, kCollFetchReplyThread, requester, rep);
  ++stats_.fetches_served;
}

void NicCollPort::register_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  engine_.register_metrics(reg, prefix);
  reg.counter(prefix + "/rearms", &stats_.rearms);
  reg.counter(prefix + "/fallbacks", &stats_.fallbacks);
  reg.counter(prefix + "/fetches_served", &stats_.fetches_served);
  reg.counter(prefix + "/fetches_parked", &stats_.fetches_parked);
  reg.counter(prefix + "/late_completions", &stats_.late_completions);
}

}  // namespace ncs::mps
