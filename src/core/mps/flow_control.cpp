#include "core/mps/flow_control.hpp"

#include "common/assert.hpp"

namespace ncs::mps {

const char* to_string(FlowControlKind k) {
  switch (k) {
    case FlowControlKind::none: return "none";
    case FlowControlKind::window: return "window";
    case FlowControlKind::rate: return "rate";
  }
  return "?";
}

FlowControl::FlowControl(mts::Scheduler& sched, FlowControlParams params,
                         const obs::Hub& obs, int rank)
    : sched_(sched), params_(params), obs_(&obs), track_(rank, "/mps/send") {
  NCS_ASSERT(params_.window >= 1);
  NCS_ASSERT(params_.rate_bytes_per_sec > 0);
}

void FlowControl::before_send(const Message& msg) {
  switch (params_.kind) {
    case FlowControlKind::none:
      return;

    case FlowControlKind::window: {
      Window& win = windows_[msg.to_process];
      int& out = win.outstanding;
      auto& waiters = win.waiters;
      const TimePoint started = sched_.engine().now();
      // A sender queues when the window is full — or when earlier senders
      // are already queued: admitting a newcomer past the queue would let
      // it steal the credit an ack just granted to the front waiter, which
      // would then re-queue at the back and starve (FIFO inversion).
      if (out >= params_.window || !waiters.empty()) {
        ++stats_.window_stalls;
        waiters.push_back(WindowWaiter{sched_.current(), false});
        auto me = std::prev(waiters.end());
        for (;;) {
          sched_.block(sim::Activity::communicate);
          // An ack marked this entry and freed a credit, so the re-check
          // normally passes; it is kept so an unexpected wakeup cannot
          // overfill the window — re-arm and keep the queue seat.
          if (me->signaled && out < params_.window) break;
          me->signaled = false;
        }
        waiters.erase(me);
      }
      const Duration stalled = sched_.engine().now() - started;
      stats_.time_blocked += stalled;
      if (stalled > Duration::zero()) {
        if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
          trace->complete(track_.id(*trace), "fc-stall->p" + std::to_string(msg.to_process),
                          "mps", started, stalled);
        if (obs::Profiler* prof = obs_->prof; prof != nullptr)
          prof->record(obs::Layer::fc_stall, stalled);
      }
      ++out;
      ++total_outstanding_;
      return;
    }

    case FlowControlKind::rate: {
      TimePoint now = sched_.engine().now();
      if (next_free_ > now) {
        ++stats_.rate_delays;
        const TimePoint started = now;
        // Loop until admitted: N senders sleeping toward the same horizon
        // all wake together, and only the first to dispatch may claim it —
        // it advances next_free_ below, so the re-check sends the others
        // back to sleep instead of letting the whole cohort inject a burst
        // above rate_bytes_per_sec.
        do {
          sched_.sleep_until(next_free_);
          now = sched_.engine().now();
        } while (next_free_ > now);
        stats_.time_blocked += now - started;
        if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
          trace->complete(track_.id(*trace), "rate-pace", "mps", started, now - started);
        if (obs::Profiler* prof = obs_->prof; prof != nullptr)
          prof->record(obs::Layer::fc_stall, now - started);
      }
      const Duration occupancy =
          Duration::seconds(static_cast<double>(msg.data.size()) / params_.rate_bytes_per_sec);
      next_free_ = ncs::max(now, next_free_) + occupancy;
      return;
    }
  }
}

void FlowControl::on_ack(int from_process) {
  if (params_.kind != FlowControlKind::window) return;
  // An ack from a peer never sent to carries no credit (and creates no state).
  Window* win = windows_.find(from_process);
  if (win == nullptr) return;
  int& out = win->outstanding;
  // Clamp instead of asserting: with retransmitting error control over a
  // lossy link, duplicate deliveries produce duplicate acks.
  if (out > 0) {
    --out;
    --total_outstanding_;
  }
  // Wake only a thread stalled on *this* destination's window — credit for
  // process B is useless to a thread waiting on process A (it would
  // re-block, and B's waiter would sleep forever). The wakeup budget is
  // window - outstanding - already-signaled: a duplicate ack (clamped
  // above) frees no credit and must not wake a second waiter onto the one
  // credit, which would admit both and overfill the window.
  auto& waiters = win->waiters;
  int signaled = 0;
  for (const WindowWaiter& w : waiters)
    if (w.signaled) ++signaled;
  if (out + signaled >= params_.window) return;
  for (WindowWaiter& w : waiters) {
    if (w.signaled) continue;
    w.signaled = true;
    sched_.unblock(w.thread);
    return;
  }
}

void FlowControl::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/window_stalls", &stats_.window_stalls);
  reg.counter(prefix + "/rate_delays", &stats_.rate_delays);
  reg.duration(prefix + "/time_blocked", &stats_.time_blocked);
}

}  // namespace ncs::mps
