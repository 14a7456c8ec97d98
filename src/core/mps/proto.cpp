#include "core/mps/proto.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::mps {

namespace {
/// Profiler key for an application message (matches node.cpp's keying).
obs::Profiler::MsgKey key_of(const Message& m) {
  return {m.from_process, m.to_process, m.seq};
}

/// Bytes of the per-message record inside an eager frame, excluding the
/// payload: from_thread, to_thread, seq, len.
constexpr std::size_t kEagerRecordBytes = 4 * 4;
}  // namespace

const char* to_string(ProtoMode m) {
  switch (m) {
    case ProtoMode::off: return "off";
    case ProtoMode::adaptive: return "adaptive";
    case ProtoMode::eager: return "eager";
    case ProtoMode::rendezvous: return "rendezvous";
  }
  return "?";
}

ProtoEngine::ProtoEngine(mts::Scheduler& host, Transport& transport, FlowControl& fc,
                         ErrorControl& ec, ProtoParams params, int rank,
                         double copy_cycles_per_byte, double fixed_cycles, Hooks hooks,
                         const obs::Hub& obs)
    : host_(host),
      transport_(transport),
      fc_(fc),
      ec_(ec),
      params_(params),
      rank_(rank),
      copy_cycles_per_byte_(copy_cycles_per_byte),
      fixed_cycles_(fixed_cycles),
      hooks_(std::move(hooks)),
      obs_(&obs),
      track_(rank, "/mps/send") {
  NCS_ASSERT(params_.coalesce_max_msgs >= 1);
  NCS_ASSERT(params_.coalesce_max_bytes >= 1);
}

bool ProtoEngine::use_rendezvous(std::size_t bytes) const {
  switch (params_.mode) {
    case ProtoMode::off:
    case ProtoMode::eager: return false;
    case ProtoMode::rendezvous: return true;
    case ProtoMode::adaptive: return bytes > crossover_bytes();
  }
  return false;
}

std::size_t ProtoEngine::crossover_bytes() const {
  if (params_.eager_max_bytes != 0) return params_.eager_max_bytes;
  // Eager's extra cost for an S-byte payload is the pack copy into the
  // coalescing buffer, S * copy_cycles_per_byte / cpu_hz. Rendezvous's
  // extra cost is the RTS/CTS round trip. They break even at
  // S* = rtt * copy_bandwidth. Until a real handshake has been measured,
  // the round trip is estimated as four fixed per-message transport costs
  // (RTS submit + receive, CTS submit + receive); afterwards the EWMA of
  // observed RTS->CTS delays takes over — congestion or loss pushing the
  // handshake out moves the crossover up, keeping mid-size messages on
  // the cheaper eager path.
  const double cpu_hz = host_.params().cpu_mhz * 1e6;
  const double copy_bw = cpu_hz / copy_cycles_per_byte_;  // bytes/sec
  double rtt_sec;
  if (rtt_ewma_ps_ > 0) {
    rtt_sec = rtt_ewma_ps_ * 1e-12;
  } else {
    const Duration per_msg = transport_.cost_hints().per_message;
    rtt_sec = per_msg.is_zero() ? 200e-6 : 4.0 * per_msg.sec();
  }
  const auto s = static_cast<std::size_t>(rtt_sec * copy_bw);
  return std::clamp<std::size_t>(s, 1024, 256 * 1024);
}

Message ProtoEngine::make_frame(int dst, Bytes payload) {
  return Message{rank_, kProtoThread, dst, kProtoThread,
                 peers_[dst].frame_seq++, std::move(payload)};
}

// --- eager path (send-thread context) ---

void ProtoEngine::eager_enqueue(Message msg) {
  const int dst = msg.to_process;
  Batch& b = peers_[dst].batch;
  const std::size_t size = msg.data.size();
  // The pack copy into the coalescing buffer — the eager path's
  // size-proportional cost, weighed against the handshake by the
  // crossover.
  host_.charge_cycles(fixed_cycles_ + copy_cycles_per_byte_ * static_cast<double>(size),
                      sim::Activity::communicate);
  if (b.msgs.empty()) {
    pending_.insert(std::lower_bound(pending_.begin(), pending_.end(), dst), dst);
    // First message arms the flush deadline. The timer fires in engine
    // context where flushing (which may block on flow control) is not
    // allowed, so it only parks a marker in the send queue.
    // The batch outlives the timer: PeerMap records are never moved.
    b.timer = host_.engine().schedule_after(params_.flush_timeout, [this, &b, dst] {
      b.timer = 0;
      if (b.msgs.empty() || b.flush_requested) return;
      b.flush_requested = true;
      if (hooks_.request_flush) hooks_.request_flush(dst);
    });
  }
  b.bytes += size;
  b.enqueued.push_back(host_.engine().now());
  b.msgs.push_back(std::move(msg));
  ++stats_.eager_msgs;
  stats_.eager_bytes += size;
  if (b.bytes >= params_.coalesce_max_bytes ||
      b.msgs.size() >= static_cast<std::size_t>(params_.coalesce_max_msgs)) {
    flush(dst, FlushReason::full);
  }
}

void ProtoEngine::flush(int dst, FlushReason reason) {
  Peer* peer = peers_.find(dst);
  if (peer == nullptr) return;  // never batched toward dst: nothing to flush
  Batch& b = peer->batch;
  if (b.timer != 0) {
    host_.engine().cancel(b.timer);
    b.timer = 0;
  }
  b.flush_requested = false;
  if (b.msgs.empty()) return;

  // Detach the batch before anything can block: if the flush-timeout
  // timer fires while this flush stalls on flow control, it must find an
  // empty batch, not re-flush these messages.
  std::vector<Message> msgs = std::move(b.msgs);
  std::vector<TimePoint> enqueued = std::move(b.enqueued);
  b.msgs.clear();
  b.enqueued.clear();
  b.bytes = 0;
  pending_.erase(std::lower_bound(pending_.begin(), pending_.end(), dst));

  std::size_t frame_len = kFrameHeaderBytes;
  for (const Message& m : msgs) frame_len += kEagerRecordBytes + m.data.size();
  Bytes payload(frame_len);
  ByteWriter w(payload);
  w.u8(kFrameEager);
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(msgs.size()));
  for (const Message& m : msgs) {
    w.u32(static_cast<std::uint32_t>(m.from_thread));
    w.u32(static_cast<std::uint32_t>(m.to_thread));
    w.u32(m.seq);
    w.u32(static_cast<std::uint32_t>(m.data.size()));
    w.bytes(m.data);
  }
  // Frame bookkeeping (headers were already paid for by the per-message
  // pack copies in eager_enqueue).
  host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
  Message frame = make_frame(dst, std::move(payload));

  ++stats_.eager_frames;
  switch (reason) {
    case FlushReason::full: ++stats_.flush_full; break;
    case FlushReason::timeout: ++stats_.flush_timeout; break;
    case FlushReason::idle: ++stats_.flush_idle; break;
    case FlushReason::ordered: ++stats_.flush_ordered; break;
  }

  const TimePoint began = host_.engine().now();
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    prof->record_proto_count("eager_batch_occupancy",
                              static_cast<std::int64_t>(msgs.size()));
    for (const TimePoint& t : enqueued) prof->record(obs::Layer::proto, began - t);
  }

  // One window credit and one ack per frame, not per coalesced message.
  fc_.before_send(frame);
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    const TimePoint admitted = host_.engine().now();
    for (const Message& m : msgs) prof->on_admit(key_of(m), admitted);
  }
  hooks_.submit(frame);
  ec_.on_sent(frame);
  const TimePoint ended = host_.engine().now();
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    for (const Message& m : msgs) prof->on_handoff(key_of(m), ended);
  }
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
    trace->complete(track_.id(*trace),
                    "eager->p" + std::to_string(dst) + " x" + std::to_string(msgs.size()) +
                        " " + std::to_string(frame.data.size()) + "B",
                    "mps", began, ended - began);
  }
}

void ProtoEngine::flush_all(FlushReason reason) {
  // Each step takes the lowest pending destination past the last one
  // flushed. A batch opened behind the cursor while a flush blocked waits
  // for the next call, just as an ascending scan over every rank would
  // have passed it by.
  for (int next = 0;;) {
    const auto it = std::lower_bound(pending_.begin(), pending_.end(), next);
    if (it == pending_.end()) return;
    next = *it + 1;
    flush(*it, reason);
  }
}

// --- rendezvous path ---

std::size_t ProtoEngine::chunk_payload_bytes(std::uint32_t peer_hint) const {
  std::size_t window = params_.rndv_chunk_bytes;
  if (window == 0) window = transport_.cost_hints().dma_window;
  if (window == 0) window = 8192;
  if (peer_hint != 0) window = std::min(window, static_cast<std::size_t>(peer_hint));
  // The chunk frame must fit the window with its NCS + frame headers on.
  const std::size_t overhead = kHeaderBytes + kFrameHeaderBytes;
  return window > overhead + 64 ? window - overhead : std::max<std::size_t>(window, 64);
}

bool ProtoEngine::rendezvous(const Message& msg) {
  const int dst = msg.to_process;
  // Per-source FIFO across the size boundary: coalesced predecessors to
  // this destination leave first (their frame seq precedes ours).
  flush(dst, FlushReason::ordered);
  ++stats_.rndv_transfers;
  const std::uint32_t id = next_transfer_++;

  // One window credit covers the whole transfer; the final chunk's
  // (credit-bearing) ack releases it. Rate pacing sees the true size.
  fc_.before_send(msg);
  if (obs::Profiler* prof = obs_->prof; prof != nullptr)
    prof->on_admit(key_of(msg), host_.engine().now());

  RndvTx& st = rndv_tx_[id];
  st.waiter = host_.current();

  Bytes rts_payload(1 + 5 * 4);
  {
    ByteWriter w(rts_payload);
    w.u8(kCtlRts);
    w.u32(id);
    w.u32(static_cast<std::uint32_t>(msg.from_thread));
    w.u32(static_cast<std::uint32_t>(msg.to_thread));
    w.u32(msg.seq);
    w.u32(static_cast<std::uint32_t>(msg.data.size()));
  }
  const Message rts{rank_, kControlThread, dst, kControlThread, 0, std::move(rts_payload)};

  const TimePoint handshake_began = host_.engine().now();
  int sends = 0;
  while (!st.cts) {
    if (sends > params_.cts_retry_limit) {
      // Handshake abandoned — the rendezvous analogue of error control
      // giving up. Return the credit (no ack is coming) and surface it.
      rndv_tx_.erase(id);
      fc_.on_ack(dst);
      ++stats_.rndv_give_ups;
      NCS_WARN("ncs.proto", "node %d giving up rendezvous to %d after %d RTS", rank_, dst,
               sends);
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
        trace->instant(track_.id(*trace), "rndv give-up ->p" + std::to_string(dst), "mps",
                       host_.engine().now());
      if (hooks_.exception) hooks_.exception(NcsExceptionKind::message_timeout, dst, msg.seq);
      return false;
    }
    if (sends > 0) ++stats_.rts_resends;
    host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
    hooks_.submit(rts);
    ++sends;
    if (st.cts) break;  // CTS landed while the submit had us blocked
    st.waiting = true;
    const sim::EventId timer =
        host_.engine().schedule_after(params_.cts_timeout, [this, id] {
          // Wake the sender for an RTS resend — but only if it is still
          // parked for this CTS (the `waiting` flag): unblocking a thread
          // that moved on (or was already woken by the CTS) is a bug.
          auto it = rndv_tx_.find(id);
          if (it == rndv_tx_.end() || !it->second.waiting) return;
          it->second.waiting = false;
          host_.unblock(it->second.waiter);
        });
    host_.block(sim::Activity::communicate);
    st.waiting = false;
    host_.engine().cancel(timer);
  }
  const Duration handshake = host_.engine().now() - handshake_began;
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    prof->record(obs::Layer::proto, handshake);
    prof->record_proto("rts_cts_delay", handshake);
  }
  const auto sample = static_cast<double>(handshake.ps());
  rtt_ewma_ps_ = rtt_ewma_ps_ == 0.0 ? sample : 0.75 * rtt_ewma_ps_ + 0.25 * sample;

  const std::size_t chunk = chunk_payload_bytes(st.chunk_hint);
  const std::size_t wire_window = chunk + kHeaderBytes + kFrameHeaderBytes;
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(chunk, msg.data.size() - off);
    const bool final_chunk = off + len == msg.data.size();
    Bytes payload(kFrameHeaderBytes + len);
    ByteWriter w(payload);
    w.u8(kFrameChunk);
    w.u8(final_chunk ? kChunkFinal : 0);
    w.u32(id);
    w.bytes(BytesView(msg.data).subspan(off, len));
    // Only fixed bookkeeping here: the staging copy into the NIC buffer
    // is the transport's submit cost, and not paying an additional pack
    // copy per byte is the rendezvous path's whole point.
    host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
    Message frame = make_frame(dst, std::move(payload));
    hooks_.submit_bulk(frame, wire_window);
    ec_.on_sent(frame);
    ++stats_.rndv_chunks;
    off += len;
  } while (off < msg.data.size());
  rndv_tx_.erase(id);
  const TimePoint ended = host_.engine().now();
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) prof->on_handoff(key_of(msg), ended);
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
    trace->complete(track_.id(*trace),
                    "rndv->p" + std::to_string(dst) + " " + std::to_string(msg.data.size()) +
                        "B",
                    "mps", handshake_began, ended - handshake_began);
  }
  return true;
}

// --- receive side ---

bool ProtoEngine::frame_takes_credit(const Message& frame) {
  if (frame.data.size() < 2) return true;
  const auto kind = static_cast<std::uint8_t>(frame.data[0]);
  if (kind == kFrameChunk) {
    return (static_cast<std::uint8_t>(frame.data[1]) & kChunkFinal) != 0;
  }
  return true;
}

void ProtoEngine::on_rts(const Message& ctl) {
  ByteReader r(ctl.data);
  r.skip(1);
  const std::uint32_t id = r.u32();
  const auto from_thread = static_cast<std::int32_t>(r.u32());
  const auto to_thread = static_cast<std::int32_t>(r.u32());
  const std::uint32_t msg_seq = r.u32();
  const std::uint32_t total = r.u32();
  const RxKey key{ctl.from_process, id};
  if (!rndv_done_.contains(key)) {
    // Create (or refresh the header of) the reassembly state. A duplicate
    // RTS — its CTS was lost — must not reset `buf`: chunks may already
    // be arriving.
    RndvRx& st = rndv_rx_[key];
    st.from_thread = from_thread;
    st.to_thread = to_thread;
    st.msg_seq = msg_seq;
    st.total = total;
  }
  // Always answer, even for a completed transfer: the sender only stops
  // resending RTS once a CTS gets through.
  send_cts(ctl.from_process, id);
}

void ProtoEngine::send_cts(int src, std::uint32_t transfer) {
  Bytes payload(1 + 2 * 4);
  ByteWriter w(payload);
  w.u8(kCtlCts);
  w.u32(transfer);
  // Advertise this side's DMA window so the sender's chunks also fit the
  // receiver's I/O buffers (0 = no constraint).
  w.u32(static_cast<std::uint32_t>(transport_.cost_hints().dma_window));
  host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
  // Control class, sent directly from the receive thread — exactly like
  // acks, it must not queue behind a send thread stalled on flow control.
  hooks_.submit(Message{rank_, kControlThread, src, kControlThread, 0, std::move(payload)});
}

void ProtoEngine::on_cts(const Message& ctl) {
  ByteReader r(ctl.data);
  r.skip(1);
  const std::uint32_t id = r.u32();
  const std::uint32_t hint = r.u32();
  const auto it = rndv_tx_.find(id);
  if (it == rndv_tx_.end()) return;  // stale CTS for a finished transfer
  RndvTx& st = it->second;
  st.cts = true;
  st.chunk_hint = hint;
  if (st.waiting) {
    st.waiting = false;
    host_.unblock(st.waiter);
  }
}

void ProtoEngine::rx_frame(Message frame) {
  ++stats_.frames_rx;
  ByteReader r(frame.data);
  const std::uint8_t kind = r.u8();
  const std::uint8_t flags = r.u8();
  const std::uint32_t arg = r.u32();
  switch (kind) {
    case kFrameEager: {
      host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
      for (std::uint32_t i = 0; i < arg; ++i) {
        Message m;
        m.from_process = frame.from_process;
        m.to_process = rank_;
        m.from_thread = static_cast<std::int32_t>(r.u32());
        m.to_thread = static_cast<std::int32_t>(r.u32());
        m.seq = r.u32();
        const std::uint32_t len = r.u32();
        m.data = to_bytes(r.bytes(len));
        // The unpack copy out of the frame buffer mirrors the sender's
        // pack copy.
        host_.charge_cycles(fixed_cycles_ + copy_cycles_per_byte_ * len,
                            sim::Activity::communicate);
        hooks_.deliver(std::move(m));
      }
      break;
    }
    case kFrameChunk: {
      const RxKey key{frame.from_process, arg};
      const auto it = rndv_rx_.find(key);
      if (it == rndv_rx_.end()) {
        // No reassembly state: either the transfer already completed (a
        // retransmitted final chunk) or its RTS was lost without error
        // control. Either way the chunk has nowhere to go.
        if (!rndv_done_.contains(key)) {
          ++stats_.orphan_chunks;
          NCS_WARN("ncs.proto", "node %d dropping orphan chunk (transfer %u from %d)", rank_,
                   arg, frame.from_process);
        }
        break;
      }
      RndvRx& st = it->second;
      append(st.buf, r.bytes(r.remaining()));
      // Fixed bookkeeping only: the transport already charged the copy
      // out of the kernel buffer per chunk.
      host_.charge_cycles(fixed_cycles_, sim::Activity::communicate);
      if ((flags & kChunkFinal) == 0) break;
      if (st.buf.size() != st.total) {
        // A lost middle chunk under EC none: the reassembly can never be
        // made whole (frames are not retransmitted), so drop it.
        ++stats_.rndv_failed;
        NCS_WARN("ncs.proto", "node %d rendezvous reassembly %zu/%zuB from %d, dropping",
                 rank_, st.buf.size(), st.total, frame.from_process);
        if (hooks_.exception)
          hooks_.exception(NcsExceptionKind::frame_error, frame.from_process, st.msg_seq);
        rndv_rx_.erase(it);
        break;
      }
      Message m{frame.from_process, st.from_thread, rank_, st.to_thread, st.msg_seq,
                std::move(st.buf)};
      rndv_rx_.erase(it);
      rndv_done_.insert(key);
      ++stats_.rndv_completed;
      hooks_.deliver(std::move(m));
      break;
    }
    default: NCS_UNREACHABLE("unknown NCS protocol frame kind");
  }
}

void ProtoEngine::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/eager_msgs", &stats_.eager_msgs);
  reg.counter(prefix + "/eager_frames", &stats_.eager_frames);
  reg.counter(prefix + "/eager_bytes", &stats_.eager_bytes);
  reg.counter(prefix + "/flush_full", &stats_.flush_full);
  reg.counter(prefix + "/flush_timeout", &stats_.flush_timeout);
  reg.counter(prefix + "/flush_idle", &stats_.flush_idle);
  reg.counter(prefix + "/flush_ordered", &stats_.flush_ordered);
  reg.counter(prefix + "/rndv_transfers", &stats_.rndv_transfers);
  reg.counter(prefix + "/rndv_chunks", &stats_.rndv_chunks);
  reg.counter(prefix + "/rndv_completed", &stats_.rndv_completed);
  reg.counter(prefix + "/rts_resends", &stats_.rts_resends);
  reg.counter(prefix + "/rndv_give_ups", &stats_.rndv_give_ups);
  reg.counter(prefix + "/frames_rx", &stats_.frames_rx);
  reg.counter(prefix + "/orphan_chunks", &stats_.orphan_chunks);
  reg.counter(prefix + "/rndv_failed", &stats_.rndv_failed);
}

}  // namespace ncs::mps
