// Reliable in-order byte streams — the transport under p4 and the NSM tier.
//
// A deliberately 1995-shaped TCP: fixed-size sliding window (SunOS-era
// default socket buffers), MSS segmentation with 40 bytes of IP+TCP header
// per segment, cumulative ACKs, go-back-N retransmission on timeout with
// exponential backoff. No slow start or congestion avoidance: the paper's
// testbeds are short LANs/one WAN hop where static windowing is the
// first-order behaviour, and the paper treats TCP purely as overhead.
// Loss (from lossy links) is genuinely recovered — the WAN ablations
// exercise retransmission.
//
// TcpMesh manages one unidirectional connection per ordered host pair,
// created lazily; this mirrors p4's pre-established socket mesh.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "proto/costs.hpp"
#include "proto/segment_network.hpp"
#include "sim/engine.hpp"

namespace ncs::proto {

struct TcpParams {
  /// Maximum segment payload; clamped to the network MTU minus headers.
  std::size_t mss = 1460;
  /// Fixed window, in segments (window_segments * mss ~ the socket buffer).
  int window_segments = 8;
  /// Initial retransmission timeout; doubles per retry, capped at 8x.
  Duration rto = Duration::milliseconds(800);
  /// Nagle's algorithm: a sub-MSS segment is held while unacked data is
  /// outstanding. With `delayed_ack` this reproduces the notorious
  /// ~200 ms stall on every small-message exchange — the dominant cost of
  /// 1995 request/response traffic over BSD-derived stacks, and a large
  /// part of why the paper's p4 communication is so expensive.
  bool nagle = true;
  /// BSD delayed acknowledgement: an ack is held until a second segment
  /// arrives or this timer fires.
  Duration delayed_ack = Duration::milliseconds(200);
  bool delayed_ack_enabled = true;
};

class TcpConnection {
 public:
  using DeliverFn = std::function<void(BytesView)>;

  /// Retransmit / nagle-hold / delayed-ack instants go to `obs.trace`, on
  /// the "tcp" track every connection shares.
  TcpConnection(sim::Engine& engine, SegmentNetwork& net, int src, int dst,
                std::uint16_t conn_id, TcpParams params, const obs::Hub& obs);
  ~TcpConnection();

  /// Appends `data` to the stream. Returns immediately (unbounded send
  /// buffer, as p4 behaves with its non-blocking socket writes); wire
  /// pacing is governed by the window.
  void send(Bytes data);

  /// In-order delivery at the receiver (invoked in engine context).
  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  /// True when every sent byte has been acknowledged.
  bool idle() const { return snd_una_ == snd_buffered_; }

  std::size_t effective_mss() const { return mss_; }

  struct Stats {
    std::uint64_t data_segments = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_delayed = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t nagle_holds = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t out_of_order_drops = 0;
  };
  const Stats& stats() const { return stats_; }

  // --- internal entry points used by TcpMesh demux ---
  void on_data_segment(std::uint64_t seq, BytesView payload);
  void on_ack(std::uint64_t ack);

 private:
  void pump();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void send_ack();
  void transmit_range(std::uint64_t from, std::uint64_t to);

  sim::Engine& engine_;
  SegmentNetwork& net_;
  const int src_;
  const int dst_;
  const std::uint16_t conn_id_;
  TcpParams params_;
  std::size_t mss_;

  // Sender state (byte sequence space, 64-bit: no wraparound handling).
  Bytes send_buffer_;            // bytes [snd_una_, snd_buffered_)
  std::uint64_t buffer_base_ = 0;  // stream offset of send_buffer_[0]
  std::uint64_t snd_una_ = 0;      // oldest unacked
  std::uint64_t snd_nxt_ = 0;      // next to transmit
  std::uint64_t snd_max_ = 0;      // highest byte ever transmitted
  std::uint64_t snd_buffered_ = 0; // end of buffered data
  sim::EventId rto_event_ = 0;
  int backoff_ = 0;

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  sim::EventId delayed_ack_event_ = 0;
  DeliverFn on_deliver_;

  const obs::Hub* obs_;
  obs::Track track_{-1, "tcp"};
  Stats stats_;
};

/// All-pairs stream fabric over one SegmentNetwork.
class TcpMesh {
 public:
  /// Every connection reports to `obs` (see TcpConnection).
  TcpMesh(sim::Engine& engine, SegmentNetwork& net, TcpParams params = {},
          const obs::Hub& obs = obs::Hub::off());

  /// Stream bytes from src to dst (in-order, reliable).
  void send(int src, int dst, Bytes data);

  /// Per-destination in-order delivery callback: (src, payload view).
  void set_on_deliver(int host, std::function<void(int, BytesView)> fn);

  /// Effective MSS (after MTU clamping) — what cost models should use.
  std::size_t effective_mss() const;

  bool idle() const;

  TcpConnection::Stats total_stats() const;

  /// Registers mesh-aggregate counters under `prefix` (e.g. "tcp"): sums
  /// over every connection, sampled at snapshot time.
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  TcpConnection& connection(int src, int dst);

  sim::Engine& engine_;
  SegmentNetwork& net_;
  TcpParams params_;
  std::map<std::pair<int, int>, std::unique_ptr<TcpConnection>> connections_;
  std::vector<std::function<void(int, BytesView)>> deliver_;
  const obs::Hub* obs_;
};

}  // namespace ncs::proto
