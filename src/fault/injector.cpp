#include "fault/injector.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::fault {

namespace {
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  return seed ^ (0x9E3779B97F4A7C15ull * (index + 1));
}
}  // namespace

void FaultInjector::attach_link(const std::string& name, LinkFault* state) {
  NCS_ASSERT(state != nullptr);
  link_[name] = state;
}

void FaultInjector::attach_nic(const std::string& name, NicFault* state) {
  NCS_ASSERT(state != nullptr);
  nic_[name] = state;
}

void FaultInjector::attach_switch(const std::string& name, SwitchFault* state) {
  NCS_ASSERT(state != nullptr);
  switch_[name] = state;
}

void FaultInjector::attach_host(const std::string& name, HostFault* state) {
  NCS_ASSERT(state != nullptr);
  host_[name] = state;
}

std::vector<LinkFault*> FaultInjector::links_for(const std::string& target) {
  std::vector<LinkFault*> out;
  for (const std::string& name : {target, target + ">", target + "<"}) {
    const auto it = link_.find(name);
    if (it != link_.end()) out.push_back(it->second);
  }
  return out;
}

void FaultInjector::fire(const std::string& label) {
  ++stats_.transitions_fired;
  NCS_INFO("fault", "%s", label.c_str());
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->instant(track_.id(*trace), label, "fault", engine_.now());
  // Fault transitions live on the recorder's fabric ring (host -1), which
  // per-message stamp traffic never evicts — so a dump triggered seconds
  // after a blackout still contains the instant that caused it.
  if (obs::FlightRecorder* recorder = obs_->recorder; recorder != nullptr)
    recorder->note(-1, obs::FlightRecorder::EntryKind::fault, engine_.now(), label);
}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) {
    const std::uint64_t index = scheduled_total_++;
    const TimePoint begin = ev.begin;
    const TimePoint end = ev.begin + ev.duration;

    switch (ev.kind) {
      case FaultEvent::Kind::link_down: {
        const auto targets = links_for(ev.target);
        if (targets.empty()) {
          ++stats_.unmatched_targets;
          NCS_WARN("fault", "no link named '%s' attached", ev.target.c_str());
          break;
        }
        engine_.schedule_at(begin, [this, targets, t = ev.target] {
          for (LinkFault* f : targets) f->set_down(true);
          fire("link-down " + t);
        });
        engine_.schedule_at(end, [this, targets, t = ev.target] {
          for (LinkFault* f : targets) f->set_down(false);
          fire("link-up " + t);
        });
        stats_.events_scheduled += 1;
        break;
      }
      case FaultEvent::Kind::link_burst: {
        const auto targets = links_for(ev.target);
        if (targets.empty()) {
          ++stats_.unmatched_targets;
          NCS_WARN("fault", "no link named '%s' attached", ev.target.c_str());
          break;
        }
        const std::uint64_t seed = mix_seed(plan.seed, index);
        engine_.schedule_at(begin, [this, targets, ge = ev.ge, seed, t = ev.target] {
          // Each direction gets its own chain (distinct sub-seed) so the
          // two streams stay independent.
          std::uint64_t s = seed;
          for (LinkFault* f : targets) f->begin_burst(ge, s++);
          fire("burst-begin " + t);
        });
        engine_.schedule_at(end, [this, targets, t = ev.target] {
          for (LinkFault* f : targets) f->end_burst();
          fire("burst-end " + t);
        });
        stats_.events_scheduled += 1;
        break;
      }
      case FaultEvent::Kind::nic_corrupt: {
        const auto it = nic_.find(ev.target);
        if (it == nic_.end()) {
          ++stats_.unmatched_targets;
          NCS_WARN("fault", "no NIC named '%s' attached", ev.target.c_str());
          break;
        }
        NicFault* f = it->second;
        engine_.schedule_at(begin, [this, f, p = ev.probability, t = ev.target] {
          f->begin_window(p);
          fire("corrupt-begin " + t);
        });
        engine_.schedule_at(end, [this, f, t = ev.target] {
          f->end_window();
          fire("corrupt-end " + t);
        });
        stats_.events_scheduled += 1;
        break;
      }
      case FaultEvent::Kind::port_down: {
        const auto it = switch_.find(ev.target);
        if (it == switch_.end()) {
          ++stats_.unmatched_targets;
          NCS_WARN("fault", "no switch named '%s' attached", ev.target.c_str());
          break;
        }
        SwitchFault* f = it->second;
        engine_.schedule_at(begin, [this, f, port = ev.port, t = ev.target] {
          f->set_port_down(port, true);
          fire("port-down " + t + ":" + std::to_string(port));
        });
        engine_.schedule_at(end, [this, f, port = ev.port, t = ev.target] {
          f->set_port_down(port, false);
          fire("port-up " + t + ":" + std::to_string(port));
        });
        stats_.events_scheduled += 1;
        break;
      }
      case FaultEvent::Kind::host_pause: {
        const auto it = host_.find(ev.target);
        if (it == host_.end()) {
          ++stats_.unmatched_targets;
          NCS_WARN("fault", "no host named '%s' attached", ev.target.c_str());
          break;
        }
        HostFault* f = it->second;
        engine_.schedule_at(begin, [this, f, end, t = ev.target] {
          f->pause_until(end);
          fire("pause " + t);
        });
        // The pause itself needs no end-of-window action (threads check the
        // deadline themselves), but the timeline does: without a resume
        // instant a chaos trace shows when a host froze and never when it
        // thawed.
        engine_.schedule_at(end, [this, t = ev.target] { fire("resume " + t); });
        stats_.events_scheduled += 1;
        break;
      }
    }
  }
}

void FaultInjector::register_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  reg.counter(prefix + "/events_scheduled", &stats_.events_scheduled);
  reg.counter(prefix + "/transitions_fired", &stats_.transitions_fired);
  reg.counter(prefix + "/unmatched_targets", &stats_.unmatched_targets);
}

}  // namespace ncs::fault
