#include "proto/tcp.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::proto {

namespace {

constexpr std::uint8_t kFlagData = 1;
constexpr std::uint8_t kFlagAck = 2;
// conn_id, flags, seq, len occupy 15 bytes; the datagram is padded to the
// real 40-byte IPv4+TCP header size so wire accounting stays honest.
constexpr std::size_t kFieldBytes = 2 + 1 + 8 + 4;
static_assert(kFieldBytes <= kIpTcpHeaderBytes);

Bytes make_segment(std::uint16_t conn_id, std::uint8_t flags, std::uint64_t seq,
                   BytesView payload) {
  Bytes out(kIpTcpHeaderBytes + payload.size(), std::byte{0});
  ByteWriter w(out);
  w.u16(conn_id);
  w.u8(flags);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.zeros(kIpTcpHeaderBytes - kFieldBytes);
  w.bytes(payload);
  return out;
}

constexpr int kMaxBackoffShift = 3;  // RTO caps at 8x

}  // namespace

TcpConnection::TcpConnection(sim::Engine& engine, SegmentNetwork& net, int src, int dst,
                             std::uint16_t conn_id, TcpParams params, const obs::Hub& obs)
    : engine_(engine),
      net_(net),
      src_(src),
      dst_(dst),
      conn_id_(conn_id),
      params_(params),
      obs_(&obs) {
  NCS_ASSERT(params_.window_segments >= 1);
  NCS_ASSERT(net.mtu() > kIpTcpHeaderBytes);
  mss_ = std::min(params_.mss, net.mtu() - kIpTcpHeaderBytes);
  NCS_ASSERT(mss_ >= 1);
}

TcpConnection::~TcpConnection() {
  cancel_rto();
  if (delayed_ack_event_ != 0) engine_.cancel(delayed_ack_event_);
}

void TcpConnection::send(Bytes data) {
  if (data.empty()) return;
  append(send_buffer_, data);
  snd_buffered_ += data.size();
  pump();
}

void TcpConnection::pump() {
  const std::uint64_t window_bytes =
      static_cast<std::uint64_t>(params_.window_segments) * mss_;
  while (snd_nxt_ < snd_buffered_ && snd_nxt_ - snd_una_ < window_bytes) {
    const std::uint64_t window_room = window_bytes - (snd_nxt_ - snd_una_);
    const std::uint64_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(mss_), snd_buffered_ - snd_nxt_, window_room});
    // Nagle: hold a sub-MSS segment while earlier data is unacknowledged.
    // Combined with the peer's delayed ack this stalls every small-message
    // tail by up to the delayed-ack timer — deliberately modeled.
    if (params_.nagle && len < mss_ && snd_nxt_ > snd_una_) {
      ++stats_.nagle_holds;
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
        trace->instant(track_.id(*trace), "nagle-hold c" + std::to_string(conn_id_), "tcp",
                       engine_.now());
      break;
    }
    transmit_range(snd_nxt_, snd_nxt_ + len);
    snd_nxt_ += len;
  }
  if (snd_una_ < snd_nxt_ && rto_event_ == 0) arm_rto();
}

void TcpConnection::transmit_range(std::uint64_t from, std::uint64_t to) {
  NCS_ASSERT(from >= buffer_base_ && to <= snd_buffered_);
  const BytesView payload =
      BytesView(send_buffer_).subspan(static_cast<std::size_t>(from - buffer_base_),
                                      static_cast<std::size_t>(to - from));
  ++stats_.data_segments;
  if (to <= snd_max_) ++stats_.retransmits;
  snd_max_ = std::max(snd_max_, to);

  net_.send(src_, dst_, make_segment(conn_id_, kFlagData, from, payload), nullptr);
}

void TcpConnection::arm_rto() {
  const Duration rto = params_.rto * (std::int64_t{1} << std::min(backoff_, kMaxBackoffShift));
  rto_event_ = engine_.schedule_after(rto, [this] {
    rto_event_ = 0;
    on_rto();
  });
}

void TcpConnection::cancel_rto() {
  if (rto_event_ != 0) {
    engine_.cancel(rto_event_);
    rto_event_ = 0;
  }
}

void TcpConnection::on_rto() {
  if (snd_una_ == snd_nxt_) return;  // everything acked meanwhile
  NCS_DEBUG("tcp", "conn %u rto: go-back-n to %llu", conn_id_,
            static_cast<unsigned long long>(snd_una_));
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->instant(track_.id(*trace), "rto c" + std::to_string(conn_id_), "tcp", engine_.now());
  ++backoff_;
  snd_nxt_ = snd_una_;  // go-back-N
  pump();
}

void TcpConnection::on_ack(std::uint64_t ack) {
  if (ack <= snd_una_) return;  // duplicate/stale
  NCS_ASSERT(ack <= snd_nxt_);
  snd_una_ = ack;
  backoff_ = 0;
  // Trim acknowledged prefix.
  const auto drop = static_cast<std::size_t>(snd_una_ - buffer_base_);
  send_buffer_.erase(send_buffer_.begin(),
                     send_buffer_.begin() + static_cast<std::ptrdiff_t>(drop));
  buffer_base_ = snd_una_;
  cancel_rto();
  pump();
}

void TcpConnection::on_data_segment(std::uint64_t seq, BytesView payload) {
  bool in_order = false;
  if (seq == rcv_nxt_) {
    rcv_nxt_ += payload.size();
    stats_.bytes_delivered += payload.size();
    in_order = true;
    if (on_deliver_) on_deliver_(payload);
  } else {
    // Go-back-N receiver: drop anything out of order; the (immediate,
    // duplicate) ack tells the sender where to resume.
    ++stats_.out_of_order_drops;
  }

  if (!params_.delayed_ack_enabled || !in_order) {
    send_ack();
    return;
  }
  // BSD delayed ack: every second in-order segment acks immediately;
  // a lone segment waits for the timer.
  if (delayed_ack_event_ != 0) {
    engine_.cancel(delayed_ack_event_);
    delayed_ack_event_ = 0;
    send_ack();
  } else {
    ++stats_.acks_delayed;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(track_.id(*trace), "delay-ack c" + std::to_string(conn_id_), "tcp",
                     engine_.now());
    delayed_ack_event_ = engine_.schedule_after(params_.delayed_ack, [this] {
      delayed_ack_event_ = 0;
      send_ack();
    });
  }
}

void TcpConnection::send_ack() {
  ++stats_.acks_sent;
  net_.send(dst_, src_, make_segment(conn_id_, kFlagAck, rcv_nxt_, {}), nullptr);
}

TcpMesh::TcpMesh(sim::Engine& engine, SegmentNetwork& net, TcpParams params,
                 const obs::Hub& obs)
    : engine_(engine),
      net_(net),
      params_(params),
      deliver_(static_cast<std::size_t>(net.n_hosts())),
      obs_(&obs) {
  for (int h = 0; h < net_.n_hosts(); ++h) {
    net_.set_rx(h, [this, h](int from, Bytes datagram) {
      ByteReader r(datagram);
      const std::uint16_t conn_id = r.u16();
      const std::uint8_t flags = r.u8();
      const std::uint64_t seq = r.u64();
      const std::uint32_t len = r.u32();
      r.skip(kIpTcpHeaderBytes - kFieldBytes);
      const int a = conn_id / 256;
      const int b = conn_id % 256;
      if (flags & kFlagData) {
        NCS_ASSERT(a == from && b == h);
        connection(a, b).on_data_segment(seq, r.bytes(len));
      } else {
        NCS_ASSERT(b == from && a == h);
        connection(a, b).on_ack(seq);
      }
    });
  }
}

TcpConnection& TcpMesh::connection(int src, int dst) {
  NCS_ASSERT(src >= 0 && src < 256 && dst >= 0 && dst < 256);
  const auto key = std::make_pair(src, dst);
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    auto conn = std::make_unique<TcpConnection>(
        engine_, net_, src, dst, static_cast<std::uint16_t>(src * 256 + dst), params_, *obs_);
    conn->set_on_deliver([this, src, dst](BytesView data) {
      auto& fn = deliver_[static_cast<std::size_t>(dst)];
      if (fn) fn(src, data);
    });
    it = connections_.emplace(key, std::move(conn)).first;
  }
  return *it->second;
}

void TcpMesh::send(int src, int dst, Bytes data) {
  connection(src, dst).send(std::move(data));
}

void TcpMesh::set_on_deliver(int host, std::function<void(int, BytesView)> fn) {
  deliver_[static_cast<std::size_t>(host)] = std::move(fn);
}

std::size_t TcpMesh::effective_mss() const {
  return std::min(params_.mss, net_.mtu() - kIpTcpHeaderBytes);
}

bool TcpMesh::idle() const {
  for (const auto& [key, conn] : connections_)
    if (!conn->idle()) return false;
  return true;
}

TcpConnection::Stats TcpMesh::total_stats() const {
  TcpConnection::Stats total{};
  for (const auto& [key, conn] : connections_) {
    const auto& s = conn->stats();
    total.data_segments += s.data_segments;
    total.acks_sent += s.acks_sent;
    total.acks_delayed += s.acks_delayed;
    total.retransmits += s.retransmits;
    total.nagle_holds += s.nagle_holds;
    total.bytes_delivered += s.bytes_delivered;
    total.out_of_order_drops += s.out_of_order_drops;
  }
  return total;
}

void TcpMesh::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/data_segments", [this] { return total_stats().data_segments; });
  reg.counter(prefix + "/acks_sent", [this] { return total_stats().acks_sent; });
  reg.counter(prefix + "/acks_delayed", [this] { return total_stats().acks_delayed; });
  reg.counter(prefix + "/retransmits", [this] { return total_stats().retransmits; });
  reg.counter(prefix + "/nagle_holds", [this] { return total_stats().nagle_holds; });
  reg.counter(prefix + "/bytes_delivered", [this] { return total_stats().bytes_delivered; });
  reg.counter(prefix + "/out_of_order_drops",
              [this] { return total_stats().out_of_order_drops; });
}

}  // namespace ncs::proto
