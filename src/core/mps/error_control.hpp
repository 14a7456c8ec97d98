// Error-control policies.
//
// The paper's system threads include an error-control thread selected at
// NCS_init time (the evaluated configuration delegates to p4, i.e. `none`
// — TCP already guarantees delivery on that path). The HSM path rides raw
// AAL5, which detects corruption/loss but does not recover; `retransmit`
// adds positive acknowledgement + timeout retransmission + duplicate
// suppression on top, restoring delivery over lossy WAN links (exercised
// by the ablation benches and loss-injection tests).
//
// Division of labour: the sender side records in-flight messages and
// re-queues timed-out ones via the Node's error-control thread; the
// receiver side deduplicates by (source, sequence) and triggers acks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/mps/message.hpp"
#include "core/mts/scheduler.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "sim/engine.hpp"

namespace ncs::mps {

enum class ErrorControlKind { none, retransmit };

const char* to_string(ErrorControlKind k);

struct ErrorControlParams {
  ErrorControlKind kind = ErrorControlKind::none;
  Duration rto = Duration::milliseconds(50);
  int max_retries = 10;
};

class ErrorControl {
 public:
  /// `retransmit_fn` re-queues a message for (re)transmission; it is
  /// invoked from engine context and must not block. Retransmit and
  /// give-up instants go onto rank's "p<rank>/mps/send" trace track;
  /// first-transmission -> retransmission delays feed Layer::retx_delay.
  ErrorControl(sim::Engine& engine, ErrorControlParams params,
               std::function<void(Message)> retransmit_fn,
               const obs::Hub& obs = obs::Hub::off(), int rank = -1);

  bool wants_acks() const { return params_.kind == ErrorControlKind::retransmit; }

  /// Sender: called by the send thread after a successful hand-off.
  void on_sent(const Message& msg);

  /// Sender: ack received for (peer, seq); stops retransmission.
  void on_ack(int from_process, std::uint32_t seq);

  /// Receiver: admission. Returns the messages now deliverable, in
  /// sequence order. Duplicates (which must still be acked — the original
  /// ack may have been lost) yield nothing; so do out-of-order arrivals,
  /// which are held until the gap before them fills — NCS guarantees
  /// per-source FIFO delivery even when a retransmission overtakes later
  /// traffic. The none policy passes everything straight through.
  std::vector<Message> accept(Message msg);

  /// All sent messages acknowledged (or policy is none).
  bool idle() const { return in_flight_.empty(); }

  /// Optional: invoked when a message exhausts its retries (engine
  /// context; must not block), with the abandoned message itself — the
  /// handler needs more than (peer, seq) now that protocol frames carry
  /// differing flow-control credit (proto.hpp: only credit-bearing frames
  /// return a window slot on failure).
  void set_give_up_handler(std::function<void(const Message&)> handler) {
    give_up_handler_ = std::move(handler);
  }

  struct Stats {
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t give_ups = 0;
    /// Arrivals held back because an earlier sequence was still missing.
    std::uint64_t reorders = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Registers the policy's counters under `prefix` (e.g. "p0/mps/ec").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  struct Key {
    int peer;
    std::uint32_t seq;
    auto operator<=>(const Key&) const = default;
  };
  struct InFlight {
    Message msg;
    sim::EventId timer = 0;
    int attempts = 0;
    TimePoint first_sent;
  };

  void arm_timer(const Key& key);

  sim::Engine& engine_;
  ErrorControlParams params_;
  const obs::Hub* obs_;
  obs::Track track_;
  std::function<void(Message)> retransmit_fn_;
  std::function<void(const Message&)> give_up_handler_;

  /// Receiver-side state per source: sequences below `low` have all been
  /// delivered; `held` buffers arrivals above a gap until it fills (FIFO
  /// reorder buffer, doubling as the dedup record for those sequences).
  struct SeenState {
    std::uint32_t low = 0;
    std::map<std::uint32_t, Message> held;
  };

  std::map<Key, InFlight> in_flight_;
  std::map<int, SeenState> seen_;

  Stats stats_;
};

}  // namespace ncs::mps
