// Central fault injector.
//
// Components register their fault-state objects under the component name;
// `schedule(plan)` arms one engine event per fault transition (window
// begin and end) that flips the matching state. Everything is ordinary
// simulation-event machinery, so fault timing is exactly as deterministic
// as the rest of the run, and fault instants can be emitted into the obs
// TraceLog next to the traffic they perturb.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/faults.hpp"
#include "fault/plan.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace ncs::fault {

class FaultInjector {
 public:
  /// Fault transitions go to `obs.trace` as instants on a "fault" track
  /// and to the flight recorder's fabric ring, so a triggered dump shows
  /// the injected fault next to the failures it caused.
  explicit FaultInjector(sim::Engine& engine, const obs::Hub& obs = obs::Hub::off())
      : engine_(engine), obs_(&obs) {}

  // --- component registration (topology wiring) ---
  // Links register per direction; a plan target "sonet" matches "sonet",
  // "sonet>" and "sonet<", so one event takes down a whole duplex pair.
  void attach_link(const std::string& name, LinkFault* state);
  void attach_nic(const std::string& name, NicFault* state);
  void attach_switch(const std::string& name, SwitchFault* state);
  void attach_host(const std::string& name, HostFault* state);

  /// Arms every event of `plan` on the engine. May be called more than
  /// once (plans accumulate). Unmatched targets warn and count.
  void schedule(const FaultPlan& plan);

  struct Stats {
    std::uint64_t events_scheduled = 0;
    std::uint64_t transitions_fired = 0;
    std::uint64_t unmatched_targets = 0;
  };
  const Stats& stats() const { return stats_; }
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  std::vector<LinkFault*> links_for(const std::string& target);
  void fire(const std::string& label);

  sim::Engine& engine_;
  std::map<std::string, LinkFault*> link_;
  std::map<std::string, NicFault*> nic_;
  std::map<std::string, SwitchFault*> switch_;
  std::map<std::string, HostFault*> host_;
  const obs::Hub* obs_;
  obs::Track track_{-1, "fault"};
  std::uint64_t scheduled_total_ = 0;  // burst-seed mixing across plans
  Stats stats_;
};

}  // namespace ncs::fault
