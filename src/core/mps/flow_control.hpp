// Flow-control policies — the paper's Fig 5 QOS argument.
//
// NCS_init(flow, error) lets each application pick the policy that fits
// its QOS class: a parallel/distributed application wants window-based
// backpressure (bound the unacknowledged backlog per destination), a
// Video-on-Demand stream wants rate pacing (smooth the injection rate and
// never stall on acknowledgements), and the paper's *evaluated*
// configuration delegates to p4 — i.e. `none` at the NCS level.
//
// before_send() runs in the send system thread and may block it; credits
// return via control acknowledgements handled by the receive thread.
#pragma once

#include <cstddef>
#include <list>

#include "common/peer_map.hpp"
#include "core/mps/message.hpp"
#include "core/mts/sync.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace ncs::mps {

enum class FlowControlKind { none, window, rate };

const char* to_string(FlowControlKind k);

struct FlowControlParams {
  FlowControlKind kind = FlowControlKind::none;
  /// window: maximum unacknowledged messages per destination.
  int window = 8;
  /// rate: sustained injection rate (payload bytes per second).
  double rate_bytes_per_sec = 4e6;
};

class FlowControl {
 public:
  /// Stall spans (window stalls, rate pacing) go onto rank's
  /// "p<rank>/mps/send" trace track and feed Layer::fc_stall.
  FlowControl(mts::Scheduler& sched, FlowControlParams params,
              const obs::Hub& obs = obs::Hub::off(), int rank = -1);

  /// Acknowledgement traffic is only generated when a policy consumes it.
  bool wants_acks() const { return params_.kind == FlowControlKind::window; }

  /// Send-thread context; blocks until policy admits the message.
  void before_send(const Message& msg);

  /// Receive-thread context: credit returned by an ack from `from_process`.
  void on_ack(int from_process);

  struct Stats {
    std::uint64_t window_stalls = 0;
    std::uint64_t rate_delays = 0;
    Duration time_blocked;
  };
  const Stats& stats() const { return stats_; }

  /// Unacknowledged in-window messages towards `dst` (0 unless the window
  /// policy is active). Exposed for tests and the bottleneck report.
  int outstanding(int dst) const {
    const Window* w = windows_.find(dst);
    return w == nullptr ? 0 : w->outstanding;
  }

  /// Window occupancy summed over every destination — the telemetry
  /// queue-depth probe for this node's flow-control plane.
  int total_outstanding() const { return total_outstanding_; }

  /// Destinations holding window state (created on the first windowed send).
  std::size_t peer_records() const { return windows_.size(); }

  /// Registers the policy's counters under `prefix` (e.g. "p0/mps/flow").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  mts::Scheduler& sched_;
  FlowControlParams params_;
  const obs::Hub* obs_;
  obs::Track track_;

  // window state, created per destination on its first windowed send.
  // Waiters are kept per destination: windows are per-destination, so an
  // ack from B must never wake (only) a thread stalled on A while B's
  // waiter sleeps on.
  //
  // Each stalled sender enqueues exactly ONE entry for the whole stall and
  // erases it itself on admission (std::list: stable references, O(1)
  // self-erase). `signaled` marks the entry whose wakeup an ack already
  // paid for; on_ack never hands two wakeups to one credit and never pops
  // an entry on the waiter's behalf — the old pop-on-ack scheme combined
  // with re-pushing every loop iteration let a later (duplicate) ack wake
  // a thread whose admission had already happened.
  struct WindowWaiter {
    mts::Thread* thread;
    bool signaled = false;
  };
  struct Window {
    int outstanding = 0;
    std::list<WindowWaiter> waiters;
  };
  PeerMap<Window> windows_;
  int total_outstanding_ = 0;  // sum of every Window::outstanding

  // rate state (token-bucket horizon)
  TimePoint next_free_;

  Stats stats_;
};

}  // namespace ncs::mps
