#include "core/mps/error_control.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::mps {

const char* to_string(ErrorControlKind k) {
  switch (k) {
    case ErrorControlKind::none: return "none";
    case ErrorControlKind::retransmit: return "retransmit";
  }
  return "?";
}

ErrorControl::ErrorControl(sim::Engine& engine, ErrorControlParams params,
                           std::function<void(Message)> retransmit_fn, const obs::Hub& obs,
                           int rank)
    : engine_(engine),
      params_(params),
      obs_(&obs),
      track_(rank, "/mps/send"),
      retransmit_fn_(std::move(retransmit_fn)) {
  NCS_ASSERT(params_.kind == ErrorControlKind::none || retransmit_fn_ != nullptr);
}

void ErrorControl::on_sent(const Message& msg) {
  if (params_.kind != ErrorControlKind::retransmit) return;
  const Key key{msg.to_process, msg.seq};
  auto it = in_flight_.find(key);
  if (it == in_flight_.end()) {
    it = in_flight_.emplace(key, InFlight{msg, 0, 0, engine_.now()}).first;
  } else {
    ++it->second.attempts;  // this was a retransmission completing
  }
  arm_timer(key);
}

void ErrorControl::arm_timer(const Key& key) {
  InFlight& f = in_flight_.at(key);
  if (f.timer != 0) engine_.cancel(f.timer);
  f.timer = engine_.schedule_after(params_.rto, [this, key] {
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) return;
    it->second.timer = 0;
    if (it->second.attempts >= params_.max_retries) {
      ++stats_.give_ups;
      NCS_WARN("ncs.ec", "giving up on msg seq %u to %d after %d attempts", key.seq, key.peer,
               it->second.attempts);
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
        trace->instant(track_.id(*trace),
                       "give-up seq" + std::to_string(key.seq) + "->p" +
                           std::to_string(key.peer),
                       "mps", engine_.now());
      Message failed = std::move(it->second.msg);
      in_flight_.erase(it);
      if (give_up_handler_) give_up_handler_(failed);
      return;
    }
    ++stats_.retransmits;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(track_.id(*trace),
                     "retx seq" + std::to_string(key.seq) + "->p" + std::to_string(key.peer),
                     "mps", engine_.now());
    if (obs::Profiler* prof = obs_->prof; prof != nullptr)
      prof->record(obs::Layer::retx_delay, engine_.now() - it->second.first_sent);
    retransmit_fn_(it->second.msg);
  });
}

void ErrorControl::on_ack(int from_process, std::uint32_t seq) {
  if (params_.kind != ErrorControlKind::retransmit) return;
  const auto it = in_flight_.find(Key{from_process, seq});
  if (it == in_flight_.end()) return;  // late ack for a retired message
  if (it->second.timer != 0) engine_.cancel(it->second.timer);
  in_flight_.erase(it);
}

void ErrorControl::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/retransmits", &stats_.retransmits);
  reg.counter(prefix + "/duplicates_dropped", &stats_.duplicates_dropped);
  reg.counter(prefix + "/give_ups", &stats_.give_ups);
  reg.counter(prefix + "/reorders", &stats_.reorders);
}

std::vector<Message> ErrorControl::accept(Message msg) {
  std::vector<Message> ready;
  if (params_.kind != ErrorControlKind::retransmit) {
    ready.push_back(std::move(msg));
    return ready;
  }
  SeenState& st = seen_[msg.from_process];
  if (msg.seq < st.low || st.held.contains(msg.seq)) {
    ++stats_.duplicates_dropped;
    return ready;
  }
  if (msg.seq != st.low) ++stats_.reorders;
  st.held.emplace(msg.seq, std::move(msg));
  // Release the contiguous run. A gap (a loss awaiting retransmission)
  // holds back its successors so applications never observe reordering.
  while (!st.held.empty() && st.held.begin()->first == st.low) {
    ready.push_back(std::move(st.held.begin()->second));
    st.held.erase(st.held.begin());
    ++st.low;
  }
  return ready;
}

}  // namespace ncs::mps
