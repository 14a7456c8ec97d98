// Per-message lifecycle profiler and overlap attribution.
//
// The paper's performance story has two halves: Table 4 attributes
// end-to-end message latency to protocol layers (host send overhead, SAR,
// wire, switch, receive path), and Fig 4 quantifies how much communication
// the multithreaded runtime hides behind computation. This module measures
// both from a live run.
//
// Lifecycle: every data-plane MPS message is keyed by its stable
// (from, to, seq) triple — the same triple the error-control layer uses for
// dedup, so it is unique per payload message. As the message crosses each
// layer the owning module stamps the shared engine clock:
//
//   enqueue  NCS_send pushed the request into the send queue
//   dequeue  the send system thread picked it up
//   admit    flow control released it (window credit / rate pacing done)
//   handoff  the transport accepted the last byte (NIC submit / TCP write)
//   deliver  the receive system thread put it in the destination mailbox
//   wakeup   NCS_recv returned it to the application thread
//
// Consecutive stages fold into per-layer Histograms (send_queue,
// flow_control, transport, network, mailbox) plus end_to_end; auxiliary
// layers (fc_stall, retx_delay, NIC DMA/SAR, wire serialization, scheduler
// dispatch latency) are fed directly by their modules via record().
// Modules reach the profiler through their obs::Hub (obs/hub.hpp) and
// check `prof` at the call site, so profiling disabled costs one
// predictable branch.
//
// The overlap half folds a finished sim::Timeline into per-thread
// compute/communicate/idle totals and a per-host sweep that measures the
// time where computation and communication proceed concurrently
// (overlap_ratio = overlapped / communicate, the Fig 4 quantity).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/hist.hpp"
#include "obs/hub.hpp"
#include "obs/recorder.hpp"
#include "obs/sketch.hpp"
#include "sim/timeline.hpp"

namespace ncs::obs {

class JsonWriter;

/// Latency layers. The first five are the consecutive legs of the message
/// lifecycle (their sums partition end_to_end exactly); the rest are
/// auxiliary distributions recorded directly by the owning module.
enum class Layer : std::uint8_t {
  send_queue,       // enqueue -> dequeue: wait for the send system thread
  flow_control,     // dequeue -> admit: window credit / rate pacing
  transport,        // admit -> handoff: protocol send cost, NIC submit, copies
  network,          // handoff -> deliver: wire, switch, reassembly, recv thread
  mailbox,          // deliver -> wakeup: message parked awaiting NCS_recv
  end_to_end,       // enqueue -> wakeup
  fc_stall,         // flow-control blocked spans (subset of flow_control)
  retx_delay,       // first transmission -> each retransmission
  tx_buffer_stall,  // HSM sender blocked on NIC I/O buffer backpressure
  nic_dma,          // per-burst host-memory DMA stage
  nic_sar,          // per-burst segmentation-and-reassembly stage
  wire,             // per-burst link serialization time
  sched_dispatch,   // thread runnable -> dispatched (scheduler queue wait)
  coll,             // whole-collective latency (entry -> result, per op)
  proto,            // protocol-engine delays: eager batch residency and
                    // rendezvous RTS->CTS handshake waits (mps/proto.hpp)
  rma,              // one-sided operation latency (post -> completion, all
                    // kinds; per-kind split lives in the "rma" section)
  nic_coll,         // NIC-offloaded collective firmware stages: per-hop
                    // combine and forward time on the i960 (atm/nic_coll)
};
inline constexpr int kLayerCount = static_cast<int>(Layer::nic_coll) + 1;

const char* to_string(Layer l);

/// Stable Chrome-trace flow id for a message: the same (from, to, seq)
/// triple that keys the profiler, packed so sender and receiver compute an
/// identical id without coordination.
inline std::uint64_t msg_flow_id(int from, int to, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(from)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(to)) << 32) |
         seq;
}

/// Flow ids for the one-sided plane: (initiator, target, op_id) plus a
/// leg bit — 0 for the request arrow (post span -> target execution), 1
/// for the response arrow (target execution -> completion). Bit 63 keeps
/// the RMA id space disjoint from msg_flow_id (ranks are 16-bit, so the
/// two-sided ids never set it).
inline std::uint64_t rma_flow_id(int initiator, int target, std::uint32_t op_id,
                                 int leg) {
  return (1ull << 63) | (static_cast<std::uint64_t>(leg & 1) << 62) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(initiator)) << 46) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(target)) << 30) |
         op_id;
}

class Profiler {
 public:
  struct MsgKey {
    int from;
    int to;
    std::uint32_t seq;
    bool operator<(const MsgKey& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      return seq < o.seq;
    }
  };

  /// Every end-to-end fold also lands in `obs.e2e_sketch` (the telemetry
  /// plane's tail-latency sketch) and, as an EntryKind::stamp on the
  /// destination host's ring, in `obs.recorder` — whichever are on.
  explicit Profiler(const Hub& obs = Hub::off()) : obs_(&obs) {}

  // Lifecycle stamps, in stage order. Stamps for unknown keys (or repeated
  // stamps for the same stage, e.g. a duplicate delivery that slipped past
  // dedup) are ignored; on_wakeup folds the completed lifecycle into the
  // layer histograms and retires the key.
  void on_enqueue(const MsgKey& k, TimePoint t);
  void on_dequeue(const MsgKey& k, TimePoint t);
  void on_admit(const MsgKey& k, TimePoint t);
  void on_handoff(const MsgKey& k, TimePoint t);
  void on_deliver(const MsgKey& k, TimePoint t);
  void on_wakeup(const MsgKey& k, TimePoint t);

  /// Direct sample into an auxiliary layer histogram.
  void record(Layer l, Duration d) { hist_[static_cast<int>(l)].record(d); }

  const Histogram& hist(Layer l) const { return hist_[static_cast<int>(l)]; }

  /// Per-collective-algorithm sample, keyed "op/algorithm" (e.g.
  /// "allreduce/ring"). Each key gets its own histogram, emitted as the
  /// profile's "coll" section; the coll::Engine also folds the same
  /// sample into Layer::coll as the aggregate.
  void record_coll(const std::string& key, Duration d) { coll_[key].record(d); }

  const std::map<std::string, Histogram>& coll_hists() const { return coll_; }

  /// Named protocol-engine duration sample (e.g. "rts_cts_delay"),
  /// emitted as the profile's "proto" section alongside Layer::proto.
  void record_proto(const std::string& key, Duration d) { proto_time_[key].record(d); }

  /// Named protocol-engine count sample (e.g. "eager_batch_occupancy" —
  /// messages per flushed frame); unit-less, so it is reported raw.
  void record_proto_count(const std::string& key, std::int64_t v) {
    proto_count_[key].record(v);
  }

  const std::map<std::string, Histogram>& proto_time_hists() const { return proto_time_; }
  const std::map<std::string, Histogram>& proto_count_hists() const { return proto_count_; }

  /// Per-kind one-sided latency sample ("put", "get", "fetch_add",
  /// "compare_swap"), emitted as the profile's "rma" section; the
  /// rma::Engine also folds the same sample into Layer::rma.
  void record_rma(const std::string& key, Duration d) { rma_[key].record(d); }

  const std::map<std::string, Histogram>& rma_hists() const { return rma_; }

  /// Per-core dispatch-latency sample, keyed "<host>/c<index>", emitted as
  /// the profile's "cores" section when a multi-core host is attached; the
  /// scheduler also folds the same sample into Layer::sched_dispatch as
  /// the aggregate. Single-core hosts record nothing here, so the profile
  /// JSON is unchanged for them.
  void record_core(const std::string& key, Duration d) { core_[key].record(d); }

  const std::map<std::string, Histogram>& core_hists() const { return core_; }

  /// Messages whose full lifecycle was folded.
  std::uint64_t completed() const { return completed_; }
  /// Messages with at least one stamp but no wakeup yet (lost to a link
  /// fault, given up by error control, or still in flight at end of run).
  std::uint64_t incomplete() const { return static_cast<std::uint64_t>(live_.size()); }

  /// Emits "layers": {...} and "messages": {...} as fields of the
  /// currently open JSON object (the report's "profile" section).
  void write_json(JsonWriter& w) const;

  /// One-line bottleneck attribution, e.g.
  /// "p99 end-to-end 412.3 us over 240 messages: network 61%, ...".
  std::string bottleneck_summary() const;

 private:
  // One TimePoint per stamp before wakeup, validity tracked by bitmask.
  struct Live {
    TimePoint t[5];
    std::uint8_t have = 0;
  };

  std::map<MsgKey, Live> live_;
  Histogram hist_[kLayerCount];
  std::map<std::string, Histogram> coll_;
  std::map<std::string, Histogram> proto_time_;
  std::map<std::string, Histogram> proto_count_;
  std::map<std::string, Histogram> rma_;
  std::map<std::string, Histogram> core_;
  std::uint64_t completed_ = 0;
  const Hub* obs_;
};

/// Per-thread activity totals folded from a finished Timeline track.
struct ThreadUsage {
  std::string track;                // "p0/main", "p1/ncs-send", ...
  Duration per_activity[4];         // indexed by sim::Activity
  Duration span;                    // first transition -> finish
  Duration activity(sim::Activity a) const {
    return per_activity[static_cast<int>(a)];
  }
};

/// Per-host concurrency measures from a boundary sweep over all of the
/// host's threads: `compute` is time where >= 1 thread computes,
/// `communicate` where >= 1 communicates, `overlapped` where both hold at
/// once — the communication the runtime hid behind computation.
struct HostUsage {
  std::string host;
  Duration compute;
  Duration communicate;
  Duration overhead;
  Duration overlapped;
  Duration idle;  // no thread doing anything within the host's span
  Duration span;
  double overlap_ratio() const {
    return communicate.is_zero() ? 0.0 : overlapped.sec() / communicate.sec();
  }
};

std::vector<ThreadUsage> fold_threads(const sim::Timeline& tl);

/// Groups tracks by their "host/" name prefix (tracks without a '/' form a
/// single-track host) and sweeps each group's interval boundaries.
std::vector<HostUsage> fold_hosts(const sim::Timeline& tl);

}  // namespace ncs::obs
