#include "rma/engine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace ncs::rma {

namespace {

// Request/response frame, big-endian (one frame = one logical operation;
// the TX pump chunks frames larger than an I/O buffer and the target
// reassembles on the pair's dedicated VC):
//   magic u16 | kind u8 | flags u8 | window u16 | from u16 | op_id u32 |
//   offset u64 | len u32 | aux u64 | sync u32 | payload...
// `aux` carries the atomic operand (delta / expected) on requests and the
// pre-update value on atomic responses; `sync` is the initiator's
// completion watermark (every op id below it is complete), which lets the
// target prune its idempotency caches.
constexpr std::uint16_t kMagic = 0x524D;  // "RM"
constexpr std::size_t kHeader = 36;

enum WireKind : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kFetchAdd = 3,
  kCompareSwap = 4,
  kPutAck = 5,
  kGetResp = 6,
  kAtomicResp = 7,
};

std::uint8_t wire_kind(OpKind k) {
  switch (k) {
    case OpKind::put: return kPut;
    case OpKind::get: return kGet;
    case OpKind::fetch_add: return kFetchAdd;
    case OpKind::compare_swap: return kCompareSwap;
    case OpKind::remote_put: break;  // never on the wire as a request kind
  }
  NCS_ASSERT_MSG(false, "not a request kind");
  return 0;
}

const char* request_name(std::uint8_t wire) {
  switch (wire) {
    case kPut: return "put";
    case kGet: return "get";
    case kFetchAdd: return "fetch_add";
    case kCompareSwap: return "compare_swap";
  }
  return "?";
}

/// A point strictly inside [begin, end) when the span is non-empty — where
/// flow events must land so Perfetto binds the arrow to the enclosing span.
TimePoint midpoint(TimePoint begin, TimePoint end) {
  return begin + Duration::picoseconds((end.ps() - begin.ps()) / 2);
}

}  // namespace

Engine::Engine(mts::Scheduler& host, atm::Nic& nic, int rank, int n_procs, Params params,
               const obs::Hub& obs)
    : host_(host),
      engine_(host.engine()),
      nic_(nic),
      rank_(rank),
      n_procs_(n_procs),
      params_(params),
      cq_(host),
      obs_(&obs),
      track_(rank, "/rma") {
  NCS_ASSERT(rank >= 0 && rank < n_procs);
  NCS_ASSERT_MSG(n_procs <= 0x10000 - atm::kRmaVciBase, "RMA plane VCI range overflows");
  NCS_ASSERT(params_.op_credits >= 1);
  // Terminate the RMA-plane VCs in the NIC upcall — the target side of
  // every one-sided op runs here, never in a receive thread. Two range
  // entries cover every peer; the rank's own VCI stays with the default
  // handler.
  const auto on_plane = [this](atm::VcId vc, Bytes chunk, bool eom) {
    on_rx(atm::rma_src_of(vc), std::move(chunk), eom);
  };
  const std::uint16_t own = atm::rma_vc_to(rank_).vci;
  nic_.add_vc_range_handler(atm::kRmaVciBase, own, on_plane);
  nic_.add_vc_range_handler(static_cast<std::uint16_t>(own + 1),
                            static_cast<std::uint16_t>(atm::kRmaVciBase + n_procs_), on_plane);
}

Window& Engine::create_window(int id, std::size_t bytes) {
  NCS_ASSERT(id >= 0 && id <= 0xFFFF);
  auto [it, inserted] = windows_.emplace(id, std::make_unique<Window>(id, bytes));
  NCS_ASSERT_MSG(inserted, "window id already registered");
  return *it->second;
}

Window& Engine::register_window(int id, std::span<std::byte> user) {
  NCS_ASSERT(id >= 0 && id <= 0xFFFF);
  auto [it, inserted] = windows_.emplace(id, std::make_unique<Window>(id, user));
  NCS_ASSERT_MSG(inserted, "window id already registered");
  return *it->second;
}

Window* Engine::window(int id) {
  auto it = windows_.find(id);
  return it == windows_.end() ? nullptr : it->second.get();
}

std::uint32_t Engine::put(int peer_rank, int rwindow, std::uint64_t roffset,
                          BytesView data, bool notify, std::uint64_t cookie) {
  NCS_ASSERT(peer_rank >= 0 && peer_rank < n_procs_);
  NCS_ASSERT(rwindow >= 0 && rwindow <= 0xFFFF);
  NCS_ASSERT_MSG(data.size() <= params_.max_op_bytes, "put exceeds max_op_bytes");
  const TimePoint post_begin = engine_.now();
  host_.charge_cycles(params_.desc_post_cycles, sim::Activity::overhead);
  PeerState& ps = peers_[peer_rank];
  PendingOp op;
  op.op_id = ps.next_op_id++;
  op.kind = OpKind::put;
  op.peer = peer_rank;
  op.rwindow = rwindow;
  op.roffset = roffset;
  op.len = static_cast<std::uint32_t>(data.size());
  op.cookie = cookie;
  op.notify = notify;
  op.posted = engine_.now();
  ++stats_.puts;
  stats_.bytes_put += data.size();
  if (peer_rank == rank_) return post_self(std::move(op), to_bytes(data));
  op.wire = build_frame(op, data);
  trace_post(op, post_begin);
  const std::uint32_t id = op.op_id;
  ++pending_total_;
  issue(peer_rank, std::move(op));
  return id;
}

std::uint32_t Engine::get(int peer_rank, int rwindow, std::uint64_t roffset,
                          int lwindow, std::uint64_t loffset, std::uint32_t len,
                          std::uint64_t cookie) {
  NCS_ASSERT(peer_rank >= 0 && peer_rank < n_procs_);
  NCS_ASSERT(rwindow >= 0 && rwindow <= 0xFFFF);
  NCS_ASSERT_MSG(len <= params_.max_op_bytes, "get exceeds max_op_bytes");
  Window* lw = window(lwindow);
  NCS_ASSERT_MSG(lw != nullptr && lw->in_range(loffset, len),
                 "get destination outside a registered window");
  const TimePoint post_begin = engine_.now();
  host_.charge_cycles(params_.desc_post_cycles, sim::Activity::overhead);
  PeerState& ps = peers_[peer_rank];
  PendingOp op;
  op.op_id = ps.next_op_id++;
  op.kind = OpKind::get;
  op.peer = peer_rank;
  op.rwindow = rwindow;
  op.roffset = roffset;
  op.lwindow = lwindow;
  op.loffset = loffset;
  op.len = len;
  op.cookie = cookie;
  op.posted = engine_.now();
  ++stats_.gets;
  if (peer_rank == rank_) return post_self(std::move(op), {});
  op.wire = build_frame(op, {});
  trace_post(op, post_begin);
  const std::uint32_t id = op.op_id;
  ++pending_total_;
  issue(peer_rank, std::move(op));
  return id;
}

std::uint32_t Engine::fetch_add(int peer_rank, int rwindow, std::uint64_t roffset,
                                std::uint64_t delta, std::uint64_t cookie) {
  NCS_ASSERT(peer_rank >= 0 && peer_rank < n_procs_);
  NCS_ASSERT(rwindow >= 0 && rwindow <= 0xFFFF);
  const TimePoint post_begin = engine_.now();
  host_.charge_cycles(params_.desc_post_cycles, sim::Activity::overhead);
  PeerState& ps = peers_[peer_rank];
  PendingOp op;
  op.op_id = ps.next_op_id++;
  op.kind = OpKind::fetch_add;
  op.peer = peer_rank;
  op.rwindow = rwindow;
  op.roffset = roffset;
  op.len = 8;
  op.aux = delta;
  op.cookie = cookie;
  op.posted = engine_.now();
  ++stats_.fetch_adds;
  if (peer_rank == rank_) return post_self(std::move(op), {});
  op.wire = build_frame(op, {});
  trace_post(op, post_begin);
  const std::uint32_t id = op.op_id;
  ++pending_total_;
  issue(peer_rank, std::move(op));
  return id;
}

std::uint32_t Engine::compare_swap(int peer_rank, int rwindow,
                                   std::uint64_t roffset, std::uint64_t expected,
                                   std::uint64_t desired, std::uint64_t cookie) {
  NCS_ASSERT(peer_rank >= 0 && peer_rank < n_procs_);
  NCS_ASSERT(rwindow >= 0 && rwindow <= 0xFFFF);
  const TimePoint post_begin = engine_.now();
  host_.charge_cycles(params_.desc_post_cycles, sim::Activity::overhead);
  Bytes desired_bytes(8);
  {
    ByteWriter w(desired_bytes);
    w.u64(desired);
  }
  PeerState& ps = peers_[peer_rank];
  PendingOp op;
  op.op_id = ps.next_op_id++;
  op.kind = OpKind::compare_swap;
  op.peer = peer_rank;
  op.rwindow = rwindow;
  op.roffset = roffset;
  op.len = 8;
  op.aux = expected;
  op.cookie = cookie;
  op.posted = engine_.now();
  ++stats_.compare_swaps;
  if (peer_rank == rank_) return post_self(std::move(op), std::move(desired_bytes));
  op.wire = build_frame(op, desired_bytes);
  trace_post(op, post_begin);
  const std::uint32_t id = op.op_id;
  ++pending_total_;
  issue(peer_rank, std::move(op));
  return id;
}

void Engine::fence() {
  while (pending_total_ > 0) {
    fence_waiters_.push_back(host_.current());
    host_.block(sim::Activity::communicate);
  }
}

void Engine::trace_post(const PendingOp& op, TimePoint begin) {
  obs::TraceLog* trace = obs_->trace;
  if (trace == nullptr || op.peer == rank_) return;
  const TimePoint end = engine_.now();
  trace->complete(track_.id(*trace),
                  std::string(to_string(op.kind)) + " #" +
                      std::to_string(op.op_id) + " -> p" + std::to_string(op.peer),
                  "rma", begin, end - begin);
  trace->flow_start(track_.id(*trace), "rma-req", "flow", midpoint(begin, end),
                    obs::rma_flow_id(rank_, op.peer, op.op_id, 0));
}

void Engine::register_metrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const {
  reg.counter(prefix + "/puts", &stats_.puts);
  reg.counter(prefix + "/gets", &stats_.gets);
  reg.counter(prefix + "/fetch_adds", &stats_.fetch_adds);
  reg.counter(prefix + "/compare_swaps", &stats_.compare_swaps);
  reg.counter(prefix + "/bytes_put", &stats_.bytes_put);
  reg.counter(prefix + "/bytes_got", &stats_.bytes_got);
  reg.counter(prefix + "/completions", &stats_.completions);
  reg.counter(prefix + "/error_completions", &stats_.error_completions);
  reg.counter(prefix + "/retransmits", &stats_.retransmits);
  reg.counter(prefix + "/deferred", &stats_.deferred);
  reg.counter(prefix + "/tx_chunks", &stats_.tx_chunks);
  reg.counter(prefix + "/rx_requests", &stats_.rx_requests);
  reg.counter(prefix + "/rx_replays", &stats_.rx_replays);
  reg.counter(prefix + "/rx_garbled", &stats_.rx_garbled);
  reg.counter(prefix + "/rx_bad_window", &stats_.rx_bad_window);
  reg.counter(prefix + "/notifies", &stats_.notifies);
}

// --- initiator internals ---

Bytes Engine::build_frame(const PendingOp& op, BytesView payload) const {
  Bytes out(kHeader + payload.size());
  ByteWriter w(out);
  w.u16(kMagic);
  w.u8(wire_kind(op.kind));
  w.u8(op.notify ? std::uint8_t{1} : std::uint8_t{0});
  w.u16(static_cast<std::uint16_t>(op.rwindow));
  w.u16(static_cast<std::uint16_t>(rank_));
  w.u32(op.op_id);
  w.u64(op.roffset);
  w.u32(op.len);
  w.u64(op.aux);
  // Clamped to this op's own id: when the pipe toward the peer is
  // otherwise empty the watermark already points past `op` (its id was
  // allocated before this frame is built), and a retransmission carrying
  // sync > op_id would prune the target's idempotency entry for the very
  // op being retried — re-executing an atomic that already ran.
  w.u32(std::min(sync_watermark(op.peer), op.op_id));
  w.bytes(payload);
  return out;
}

std::uint32_t Engine::sync_watermark(int p) const {
  const PeerState* ps = peers_.find(p);
  if (ps == nullptr) return PeerState{}.next_op_id;  // nothing posted yet
  if (!ps->inflight.empty()) return ps->inflight.begin()->first;
  if (!ps->deferred.empty()) return ps->deferred.front().op_id;
  return ps->next_op_id;
}

std::uint32_t Engine::post_self(PendingOp op, Bytes data) {
  const std::uint32_t id = op.op_id;
  ++pending_total_;
  self_ops_.push_back({std::move(op), std::move(data)});
  engine_.schedule_after(params_.target_exec, [this] { run_self_op(); });
  return id;
}

void Engine::run_self_op() {
  SelfOp s = std::move(self_ops_.front());
  self_ops_.pop_front();
  PendingOp& op = s.op;
  Window* w = window(op.rwindow);
  NCS_ASSERT_MSG(w != nullptr && w->in_range(op.roffset, op.len),
                 "loopback op outside a registered window");
  std::uint64_t value = 0;
  switch (op.kind) {
    case OpKind::put:
      if (op.len != 0) std::memcpy(w->at(op.roffset), s.data.data(), op.len);
      if (op.notify) {
        Completion n;
        n.kind = OpKind::remote_put;
        n.peer = rank_;
        n.window = op.rwindow;
        n.op_id = op.op_id;
        n.offset = op.roffset;
        n.bytes = op.len;
        n.at = engine_.now();
        cq_.push(n);
        ++stats_.notifies;
      }
      break;
    case OpKind::get: {
      Window* lw = window(op.lwindow);
      if (op.len != 0) std::memcpy(lw->at(op.loffset), w->at(op.roffset), op.len);
      stats_.bytes_got += op.len;
      break;
    }
    case OpKind::fetch_add:
      value = w->load_u64(op.roffset);
      w->store_u64(op.roffset, value + op.aux);
      break;
    case OpKind::compare_swap: {
      value = w->load_u64(op.roffset);
      ByteReader r(s.data);
      const std::uint64_t desired = r.u64();
      if (value == op.aux) w->store_u64(op.roffset, desired);
      break;
    }
    case OpKind::remote_put:
      NCS_ASSERT_MSG(false, "not a postable kind");
  }
  complete(rank_, std::move(s.op), /*ok=*/true, value);
}

void Engine::issue(int p, PendingOp op) {
  PeerState& ps = peers_[p];
  if (ps.credits_used >= params_.op_credits) {
    ps.deferred.push_back(std::move(op));
    ++stats_.deferred;
    return;
  }
  ++ps.credits_used;
  ++credits_in_use_;
  const std::uint32_t id = op.op_id;
  Bytes wire = op.wire;  // the pending op keeps the original for retransmit
  auto [it, inserted] = ps.inflight.emplace(id, std::move(op));
  NCS_ASSERT(inserted);
  enqueue_tx(atm::rma_vc_to(p), std::move(wire));
  arm_timer(p, id);
}

void Engine::arm_timer(int p, std::uint32_t op_id) {
  PeerState& ps = peers_[p];
  auto it = ps.inflight.find(op_id);
  NCS_ASSERT(it != ps.inflight.end());
  it->second.timer = engine_.schedule_after(
      params_.response_timeout, [this, p, op_id] { on_timeout(p, op_id); });
}

void Engine::on_timeout(int p, std::uint32_t op_id) {
  PeerState& ps = peers_[p];
  auto it = ps.inflight.find(op_id);
  if (it == ps.inflight.end()) return;  // response raced the timer
  PendingOp& op = it->second;
  op.timer = 0;
  if (op.retries < params_.retry_limit) {
    ++op.retries;
    ++stats_.retransmits;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(track_.id(*trace), "rma-retx", "rma", engine_.now());
    enqueue_tx(atm::rma_vc_to(p), Bytes(op.wire));
    arm_timer(p, op_id);
    return;
  }
  // Retries exhausted: the circuit is gone (or the target never had the
  // window). Complete with error and free the credit — the failure is
  // loud, never a hang.
  PendingOp dead = std::move(it->second);
  ps.inflight.erase(it);
  complete(p, std::move(dead), /*ok=*/false, 0);
  release_credit(p);
}

void Engine::complete(int p, PendingOp op, bool ok, std::uint64_t value) {
  if (op.timer != 0) engine_.cancel(op.timer);
  Completion c;
  c.kind = op.kind;
  c.ok = ok;
  c.error = mps::NcsExceptionKind::message_timeout;
  c.peer = p;
  c.window = op.rwindow;
  c.op_id = op.op_id;
  c.offset = op.roffset;
  c.bytes = op.len;
  c.value = value;
  c.cookie = op.cookie;
  c.at = engine_.now();
  cq_.push(c);
  const Duration lat = engine_.now() - op.posted;
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    prof->record(obs::Layer::rma, lat);
    prof->record_rma(to_string(op.kind), lat);
  }
  if (obs::WindowedSketch* sketch = obs_->rma_sketch; sketch != nullptr)
    sketch->record(engine_.now(), lat);
  if (ok) {
    ++stats_.completions;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr && p != rank_) {
      // Synthetic sliver ending at completion time — just wide enough for
      // the response arrow to land inside it.
      const TimePoint end = engine_.now();
      const TimePoint begin = end - Duration::nanoseconds(500);
      trace->complete(track_.id(*trace),
                      std::string("comp ") + to_string(op.kind) + " #" +
                          std::to_string(op.op_id) + " <- p" + std::to_string(p),
                      "rma", begin, end - begin);
      trace->flow_end(track_.id(*trace), "rma-resp", "flow", midpoint(begin, end),
                      obs::rma_flow_id(rank_, p, op.op_id, 1));
    }
  } else {
    ++stats_.error_completions;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(track_.id(*trace), "rma-error", "rma", engine_.now());
    if (exception_hook_)
      exception_hook_(
          mps::NcsException(mps::NcsExceptionKind::message_timeout, p, op.op_id));
  }
  --pending_total_;
  NCS_ASSERT(pending_total_ >= 0);
  if (pending_total_ == 0) {
    while (!fence_waiters_.empty()) {
      host_.unblock(fence_waiters_.front());
      fence_waiters_.pop_front();
    }
  }
}

void Engine::release_credit(int p) {
  PeerState& ps = peers_[p];
  NCS_ASSERT(ps.credits_used > 0);
  --ps.credits_used;
  --credits_in_use_;
  if (!ps.deferred.empty()) {
    PendingOp next = std::move(ps.deferred.front());
    ps.deferred.pop_front();
    issue(p, std::move(next));
  }
}

// --- TX pump ---

void Engine::enqueue_tx(atm::VcId vc, Bytes frame) {
  txq_.push_back({vc, std::move(frame)});
  if (!tx_active_) {
    tx_active_ = true;
    tx_step();
  }
}

void Engine::tx_step() {
  if (txq_.empty()) {
    tx_active_ = false;
    return;
  }
  if (!nic_.tx_buffer_available()) {
    nic_.notify_tx_buffer([this] { tx_step(); });
    return;
  }
  TxPacket& pkt = txq_.front();
  const std::size_t chunk_max = nic_.params().io_buffer_size;
  const std::size_t n = std::min(pkt.frame.size() - tx_off_, chunk_max);
  const auto begin = pkt.frame.begin() + static_cast<std::ptrdiff_t>(tx_off_);
  Bytes chunk(begin, begin + static_cast<std::ptrdiff_t>(n));
  tx_off_ += n;
  const bool last = tx_off_ == pkt.frame.size();
  nic_.submit_tx(pkt.vc, std::move(chunk), last);
  ++stats_.tx_chunks;
  if (last) {
    txq_.pop_front();
    tx_off_ = 0;
  }
  // Drain via the buffer-free notification (fires through the event queue
  // immediately when a buffer is already free).
  nic_.notify_tx_buffer([this] { tx_step(); });
}

// --- target side (NIC upcall context) ---

void Engine::on_rx(int p, Bytes chunk, bool eom) {
  PeerState& ps = peers_[p];
  append(ps.rx_buf, chunk);
  if (!eom) return;
  Bytes frame = std::move(ps.rx_buf);
  ps.rx_buf = {};
  handle_frame(p, std::move(frame));
}

void Engine::handle_frame(int p, Bytes frame) {
  if (frame.size() < kHeader) {
    ++stats_.rx_garbled;
    return;
  }
  ByteReader r(frame);
  const std::uint16_t magic = r.u16();
  const std::uint8_t kind = r.u8();
  const std::uint8_t flags = r.u8();
  const int window_id = r.u16();
  const int from = r.u16();
  const std::uint32_t op_id = r.u32();
  const std::uint64_t offset = r.u64();
  const std::uint32_t len = r.u32();
  const std::uint64_t aux = r.u64();
  const std::uint32_t sync = r.u32();
  const BytesView payload = r.bytes(r.remaining());

  // A lost cell drops a whole chunk, so a reassembled frame can be a
  // truncated splice of two frames; the magic + per-kind length checks
  // reject it and the initiator's timeout repairs.
  if (magic != kMagic || from != p) {
    ++stats_.rx_garbled;
    return;
  }

  bool well_formed = true;
  switch (kind) {
    case kPutAck:
    case kAtomicResp:
      if (!payload.empty()) break;
      handle_response(p, kind, op_id, aux, payload);
      return;
    case kGetResp:
      if (payload.size() != len) break;
      handle_response(p, kind, op_id, aux, payload);
      return;
    case kPut:
      well_formed = payload.size() == len;
      break;
    case kGet:
      well_formed = payload.empty() && len <= params_.max_op_bytes;
      break;
    case kFetchAdd:
      well_formed = payload.empty();
      break;
    case kCompareSwap:
      well_formed = payload.size() == 8;
      break;
    default:
      well_formed = false;
      break;
  }
  if (!well_formed || kind == kPutAck || kind == kAtomicResp || kind == kGetResp) {
    ++stats_.rx_garbled;
    return;
  }

  RxRequest q;
  q.p = p;
  q.kind = kind;
  q.notify = (flags & 1) != 0;
  q.window = window_id;
  q.op_id = op_id;
  q.sync = sync;
  q.offset = offset;
  q.len = len;
  q.aux = aux;
  q.payload = to_bytes(payload);
  rx_exec_.push_back(std::move(q));
  engine_.schedule_after(params_.target_exec, [this] {
    RxRequest next = std::move(rx_exec_.front());
    rx_exec_.pop_front();
    execute_request(std::move(next));
  });
}

void Engine::execute_request(RxRequest q) {
  PeerState& ps = peers_[q.p];
  // The watermark proves every op id below `sync` completed at the
  // initiator, so the idempotency state for them can never be needed again.
  // Pruning happens here, not at frame arrival: requests park in rx_exec_
  // for target_exec, and a successor frame's watermark arriving in that
  // window must not evict the cache entry a parked duplicate still needs.
  // FIFO execution plus the frame's sync clamp (sync <= its own op_id)
  // guarantee the duplicate is answered from cache before any prune that
  // could cover its id.
  ps.atomic_cache.erase(ps.atomic_cache.begin(), ps.atomic_cache.lower_bound(q.sync));
  ps.notified.erase(ps.notified.begin(), ps.notified.lower_bound(q.sync));
  Window* w = window(q.window);
  const std::uint64_t need = (q.kind == kPut || q.kind == kGet)
                                 ? std::uint64_t{q.len}
                                 : std::uint64_t{8};
  if (w == nullptr || !w->in_range(q.offset, need)) {
    // Out-of-range access: dropped on the floor; the initiator's retries
    // exhaust and it completes with error.
    ++stats_.rx_bad_window;
    return;
  }
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
    // The request parked for exactly target_exec of firmware time; the
    // span covers it, ends the request arrow, and starts the response one.
    const TimePoint end = engine_.now();
    const TimePoint begin = end - params_.target_exec;
    trace->complete(track_.id(*trace),
                    std::string("exec ") + request_name(q.kind) + " #" +
                        std::to_string(q.op_id) + " from p" + std::to_string(q.p),
                    "rma", begin, end - begin);
    trace->flow_end(track_.id(*trace), "rma-req", "flow", midpoint(begin, end),
                    obs::rma_flow_id(q.p, rank_, q.op_id, 0));
    trace->flow_start(track_.id(*trace), "rma-resp", "flow", midpoint(begin, end),
                      obs::rma_flow_id(q.p, rank_, q.op_id, 1));
  }
  switch (q.kind) {
    case kPut:
      // Replayed puts rewrite the same bytes — idempotent by nature. Only
      // the notification must be deduplicated.
      if (q.len != 0) std::memcpy(w->at(q.offset), q.payload.data(), q.len);
      ++stats_.rx_requests;
      if (q.notify && ps.notified.insert(q.op_id).second) {
        Completion n;
        n.kind = OpKind::remote_put;
        n.peer = q.p;
        n.window = q.window;
        n.op_id = q.op_id;
        n.offset = q.offset;
        n.bytes = q.len;
        n.at = engine_.now();
        cq_.push(n);
        ++stats_.notifies;
      }
      send_response(q.p, kPutAck, q.window, q.op_id, q.offset, 0, {});
      break;
    case kGet:
      ++stats_.rx_requests;
      send_response(q.p, kGetResp, q.window, q.op_id, q.offset, 0,
                    BytesView(w->at(q.offset), q.len));
      break;
    case kFetchAdd: {
      std::uint64_t old;
      auto cached = ps.atomic_cache.find(q.op_id);
      if (cached != ps.atomic_cache.end()) {
        old = cached->second;  // duplicate: answer without re-executing
        ++stats_.rx_replays;
      } else {
        old = w->load_u64(q.offset);
        w->store_u64(q.offset, old + q.aux);
        ps.atomic_cache.emplace(q.op_id, old);
        ++stats_.rx_requests;
      }
      send_response(q.p, kAtomicResp, q.window, q.op_id, q.offset, old, {});
      break;
    }
    case kCompareSwap: {
      std::uint64_t old;
      auto cached = ps.atomic_cache.find(q.op_id);
      if (cached != ps.atomic_cache.end()) {
        old = cached->second;
        ++stats_.rx_replays;
      } else {
        old = w->load_u64(q.offset);
        ByteReader r(q.payload);
        const std::uint64_t desired = r.u64();
        if (old == q.aux) w->store_u64(q.offset, desired);
        ps.atomic_cache.emplace(q.op_id, old);
        ++stats_.rx_requests;
      }
      send_response(q.p, kAtomicResp, q.window, q.op_id, q.offset, old, {});
      break;
    }
    default:
      NCS_ASSERT_MSG(false, "not a request kind");
  }
}

void Engine::send_response(int p, std::uint8_t kind, int window_id,
                           std::uint32_t op_id, std::uint64_t offset,
                           std::uint64_t aux, BytesView payload) {
  Bytes out(kHeader + payload.size());
  ByteWriter w(out);
  w.u16(kMagic);
  w.u8(kind);
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(window_id));
  w.u16(static_cast<std::uint16_t>(rank_));
  w.u32(op_id);
  w.u64(offset);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(aux);
  w.u32(0);  // responses carry no watermark
  w.bytes(payload);
  enqueue_tx(atm::rma_vc_to(p), std::move(out));
}

void Engine::handle_response(int p, std::uint8_t kind, std::uint32_t op_id,
                             std::uint64_t aux, BytesView payload) {
  PeerState& ps = peers_[p];
  auto it = ps.inflight.find(op_id);
  if (it == ps.inflight.end()) return;  // duplicate response: op already done
  PendingOp& op = it->second;
  const bool match =
      (kind == kPutAck && op.kind == OpKind::put) ||
      (kind == kGetResp && op.kind == OpKind::get) ||
      (kind == kAtomicResp &&
       (op.kind == OpKind::fetch_add || op.kind == OpKind::compare_swap));
  if (!match) {
    ++stats_.rx_garbled;
    return;
  }
  if (kind == kGetResp) {
    if (payload.size() != op.len) {
      ++stats_.rx_garbled;
      return;
    }
    // The local window was validated at post time; this is the initiator
    // side of the get DMA.
    Window* lw = window(op.lwindow);
    if (op.len != 0) std::memcpy(lw->at(op.loffset), payload.data(), op.len);
    stats_.bytes_got += op.len;
  }
  PendingOp done = std::move(it->second);
  ps.inflight.erase(it);
  complete(p, std::move(done), /*ok=*/true, aux);
  release_credit(p);
}

}  // namespace ncs::rma
