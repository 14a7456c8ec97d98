#include "atm/switch.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::atm {

Switch::Switch(sim::Engine& engine, SwitchParams params, std::string name,
               const obs::Hub& obs)
    : engine_(engine), params_(params), name_(std::move(name)), obs_(&obs) {}

int Switch::trace_track(obs::TraceLog& trace) {
  if (trace_track_ < 0) trace_track_ = trace.track(name_.substr(name_.find('-') + 1));
  return trace_track_;
}

int Switch::add_port(net::Link& out_link, CellSink& peer, int peer_port) {
  ports_.push_back(Port{&out_link, &peer, peer_port});
  return static_cast<int>(ports_.size()) - 1;
}

void Switch::add_route(int in_port, VcId in_vc, int out_port, VcId out_vc) {
  NCS_ASSERT(out_port >= 0 && static_cast<std::size_t>(out_port) < ports_.size());
  const bool inserted = routes_.emplace(std::make_pair(in_port, in_vc),
                                        std::make_pair(out_port, out_vc)).second;
  NCS_ASSERT_MSG(inserted, "duplicate VC route");
}

bool Switch::remove_route(int in_port, VcId in_vc) {
  return routes_.erase(std::make_pair(in_port, in_vc)) > 0;
}

void Switch::add_local_endpoint(VcId vc, LocalHandler handler) {
  NCS_ASSERT(handler != nullptr);
  const bool inserted = local_.emplace(vc, std::move(handler)).second;
  NCS_ASSERT_MSG(inserted, "duplicate local endpoint VC");
}

void Switch::send_local(int out_port, Burst burst) {
  NCS_ASSERT(out_port >= 0 && static_cast<std::size_t>(out_port) < ports_.size());
  if (fault_.port_down(out_port)) {
    ++fault_.stats().port_drops;
    ++stats_.port_drops;
    return;
  }
  Port& port = ports_[static_cast<std::size_t>(out_port)];
  engine_.schedule_after(params_.forward_latency,
                         [&port, b = std::move(burst)]() mutable {
                           CellSink* peer = port.peer;
                           const int peer_port = port.peer_port;
                           port.link->transmit(
                               b.wire_bytes(), nullptr,
                               [peer, peer_port, b2 = std::move(b)]() mutable {
                                 peer->accept(peer_port, std::move(b2));
                               });
                         });
}

void Switch::accept(int in_port, Burst burst) {
  if (fault_.port_down(in_port)) {
    // Dead ingress: the port's receiver is dark; nothing gets in.
    ++fault_.stats().port_drops;
    ++stats_.port_drops;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(trace_track(*trace), "port-drop in p" + std::to_string(in_port), "atm",
                     engine_.now());
    return;
  }
  if (const auto lit = local_.find(burst.vc); lit != local_.end()) {
    ++stats_.bursts;
    stats_.cells += burst.n_cells;
    lit->second(in_port, std::move(burst));
    return;
  }
  const auto it = routes_.find(std::make_pair(in_port, burst.vc));
  if (it == routes_.end()) {
    ++stats_.unroutable;
    NCS_WARN("atm.switch", "%s: no route for port %d vpi %u vci %u", name_.c_str(), in_port,
             burst.vc.vpi, burst.vc.vci);
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(trace_track(*trace),
                     "unroutable vc" + std::to_string(burst.vc.vpi) + "." +
                         std::to_string(burst.vc.vci),
                     "atm", engine_.now());
    return;
  }
  const auto [out_port, out_vc] = it->second;
  if (fault_.port_down(out_port)) {
    // Dead egress: drop at the output buffer, as a real failed line card
    // would. Upstream recovery is error control's job.
    ++fault_.stats().port_drops;
    ++stats_.port_drops;
    if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
      trace->instant(trace_track(*trace), "port-drop out p" + std::to_string(out_port), "atm",
                     engine_.now());
    return;
  }
  ++stats_.bursts;
  stats_.cells += burst.n_cells;
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->complete(trace_track(*trace),
                    "fwd p" + std::to_string(in_port) + "->p" + std::to_string(out_port) +
                        " x" + std::to_string(burst.n_cells),
                    "atm", engine_.now(), params_.forward_latency);

  // Label rewriting (and, in detailed mode, per-cell header rewrite).
  burst.vc = out_vc;
  for (Cell& c : burst.cells) {
    c.header.vpi = out_vc.vpi;
    c.header.vci = out_vc.vci;
  }

  Port& port = ports_[static_cast<std::size_t>(out_port)];
  engine_.schedule_after(params_.forward_latency,
                         [this, &port, b = std::move(burst)]() mutable {
                           CellSink* peer = port.peer;
                           const int peer_port = port.peer_port;
                           port.link->transmit(
                               b.wire_bytes(), nullptr,
                               [peer, peer_port, b2 = std::move(b)]() mutable {
                                 peer->accept(peer_port, std::move(b2));
                               });
                         });
}

void Switch::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/bursts", &stats_.bursts);
  reg.counter(prefix + "/cells", &stats_.cells);
  reg.counter(prefix + "/unroutable", &stats_.unroutable);
  reg.counter(prefix + "/port_drops", &stats_.port_drops);
}

}  // namespace ncs::atm
