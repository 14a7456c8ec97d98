#include "p4/p4.hpp"

#include <utility>

#include "common/assert.hpp"

namespace ncs::p4 {

namespace {

/// Stream frame: u32 payload length, i32 type, then payload bytes.
constexpr std::size_t kFrameHeader = 8;

Bytes make_frame(int type, BytesView data) {
  Bytes out(kFrameHeader + data.size());
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(data.size()));
  w.u32(static_cast<std::uint32_t>(type));
  w.bytes(data);
  return out;
}

/// Barrier protocol types.
constexpr int kBarrierArrive = kInternalTypeBase + 1;
constexpr int kBarrierRelease = kInternalTypeBase + 2;

}  // namespace

Runtime::Runtime(sim::Engine& engine, std::vector<mts::Scheduler*> hosts,
                 proto::SegmentNetwork& net, proto::TcpParams tcp, proto::CostModel costs,
                 const obs::Hub& obs)
    : engine_(engine), costs_(costs), mesh_(engine, net, tcp, obs) {
  NCS_ASSERT(!hosts.empty());
  NCS_ASSERT(static_cast<int>(hosts.size()) <= net.n_hosts());
  for (int r = 0; r < static_cast<int>(hosts.size()); ++r) {
    procs_.emplace_back(new Process(*this, *hosts[static_cast<std::size_t>(r)], r));
    procs_.back()->partial_.resize(hosts.size());
    mesh_.set_on_deliver(r, [this, r](int src, BytesView data) {
      procs_[static_cast<std::size_t>(r)]->on_stream_bytes(src, data);
    });
  }
}

int Process::num_procs() const { return rt_.n_procs(); }

void Process::send(int type, int dst, BytesView data) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "p4 send from a foreign thread");
  NCS_ASSERT(dst >= 0 && dst < num_procs());
  Bytes frame = make_frame(type, data);
  // p4 library cost (buffering + XDR) plus the socket path: syscall,
  // socket-buffer copy, per-segment TCP/IP processing — all charged to the
  // calling thread before the stream moves.
  host_.charge_cycles(rt_.costs_.p4_per_message_cycles +
                          rt_.costs_.p4_per_byte_cycles * static_cast<double>(frame.size()) +
                          rt_.costs_.tcp_side_cycles(frame.size(), rt_.mesh_.effective_mss()),
                      sim::Activity::communicate);
  ++stats_.sends;
  stats_.bytes_sent += data.size();
  rt_.mesh_.send(rank_, dst, std::move(frame));
}

void Process::on_stream_bytes(int src, BytesView data) {
  Bytes& buf = partial_[static_cast<std::size_t>(src)];
  append(buf, data);
  // Extract every complete frame.
  std::size_t off = 0;
  while (buf.size() - off >= kFrameHeader) {
    ByteReader r(BytesView(buf).subspan(off));
    const std::uint32_t len = r.u32();
    const int type = static_cast<int>(r.u32());
    if (buf.size() - off - kFrameHeader < len) break;
    Entry e{type, src, to_bytes(r.bytes(len))};
    off += kFrameHeader + len;
    dispatch(std::move(e));
  }
  if (off > 0) buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
}

void Process::dispatch(Entry entry) {
  auto& waiters = entry.type >= kInternalTypeBase ? internal_waiters_ : waiters_;
  for (auto it = waiters.begin(); it != waiters.end(); ++it) {
    Waiter* w = *it;
    if (matches(*w, entry)) {
      waiters.erase(it);
      w->entry = std::move(entry);
      w->filled = true;
      host_.unblock(w->thread);
      return;
    }
  }
  auto& inbox = entry.type >= kInternalTypeBase ? internal_inbox_ : inbox_;
  inbox.push_back(std::move(entry));
}

Bytes Process::recv(int* type, int* from) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "p4 recv from a foreign thread");
  NCS_ASSERT(type != nullptr && from != nullptr);
  NCS_ASSERT_MSG(*type < kInternalTypeBase, "reserved p4 message type");

  Entry entry;
  bool have = false;
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    Waiter probe{*type, *from, nullptr};
    if (matches(probe, *it)) {
      entry = std::move(*it);
      inbox_.erase(it);
      have = true;
      break;
    }
  }
  if (!have) {
    Waiter w{*type, *from, host_.current()};
    waiters_.push_back(&w);
    // Blocking here is what the whole paper is about: in single-threaded
    // p4 the process idles; under NCS only this green thread does.
    while (!w.filled) host_.block(sim::Activity::communicate);
    entry = std::move(w.entry);
  }

  // Consumption cost: kernel->user copy, protocol processing and the p4
  // library's receive-side buffering/XDR.
  const std::size_t frame_size = entry.data.size() + kFrameHeader;
  host_.charge_cycles(rt_.costs_.p4_per_message_cycles +
                          rt_.costs_.p4_per_byte_cycles * static_cast<double>(frame_size) +
                          rt_.costs_.tcp_side_cycles(frame_size, rt_.mesh_.effective_mss()),
                      sim::Activity::communicate);
  ++stats_.recvs;
  stats_.bytes_received += entry.data.size();
  *type = entry.type;
  *from = entry.from;
  return std::move(entry.data);
}

void Process::send_internal(int type, int dst) {
  Bytes frame = make_frame(type, {});
  host_.charge_cycles(rt_.costs_.tcp_side_cycles(frame.size(), rt_.mesh_.effective_mss()),
                      sim::Activity::communicate);
  rt_.mesh_.send(rank_, dst, std::move(frame));
}

Process::Entry Process::recv_internal(int type) {
  Entry entry;
  for (auto it = internal_inbox_.begin(); it != internal_inbox_.end(); ++it) {
    if (it->type == type) {
      entry = std::move(*it);
      internal_inbox_.erase(it);
      return entry;
    }
  }
  Waiter w{type, kAnyProc, host_.current()};
  internal_waiters_.push_back(&w);
  while (!w.filled) host_.block(sim::Activity::communicate);
  return std::move(w.entry);
}

bool Process::messages_available(int* type, int* from) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "p4 probe from a foreign thread");
  // A probe is a (cheap) system call.
  host_.charge_cycles(rt_.costs_.syscall_cycles, sim::Activity::communicate);
  for (const Entry& e : inbox_) {
    Waiter probe{*type, *from, nullptr};
    if (matches(probe, e)) {
      *type = e.type;
      *from = e.from;
      return true;
    }
  }
  return false;
}

void Process::broadcast(int type, BytesView data) {
  for (int dst = 0; dst < num_procs(); ++dst)
    if (dst != rank_) send(type, dst, data);
}

void Process::global_barrier() {
  // Rank 0 gathers arrivals, then releases everyone — the classic p4
  // master-coordinated barrier.
  if (rank_ == 0) {
    for (int i = 1; i < num_procs(); ++i) (void)recv_internal(kBarrierArrive);
    for (int dst = 1; dst < num_procs(); ++dst) send_internal(kBarrierRelease, dst);
  } else {
    send_internal(kBarrierArrive, 0);
    (void)recv_internal(kBarrierRelease);
  }
}

}  // namespace ncs::p4
