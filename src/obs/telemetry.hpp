// Live telemetry plane: the periodic sampler tying sketches, gauges, SLOs
// and the flight recorder together.
//
// A TelemetrySampler owns named WindowedSketches (the cluster publishes
// "mps/e2e" and "rma/op" as raw pointers in its obs::Hub, where the
// Profiler and the rma::Engines record into them, so per-sample cost is a
// bucket increment) and named gauge probes (queue depths, credit occupancy,
// window occupancy: cheap lambdas over live module state). arm() schedules
// a periodic sim event; every tick it
//
//   1. advances every sketch to now (windows age out even when idle),
//   2. appends one {t, count, p50, p99, p999} point per sketch and one
//      {t, value} point per probe to the in-memory series,
//   3. grades every SLO against the new windows (hard breaches reach the
//      flight recorder through the cluster's hook),
//   4. emits the same values as Chrome counter tracks when the hub's
//      trace log is on, and
//   5. reschedules itself only while the caller's keep_going() predicate
//      holds — the tick must never keep the engine's queue non-empty
//      after the workload finished, or run() would never drain.
//
// Sampling only *reads* module state at instants that are identical
// across conforming queue backends, so enabling telemetry never perturbs
// simulated results, and the series is bit-identical run-to-run
// (tests/obs/test_telemetry.cpp).
//
// write_json() emits the report's "telemetry" section: config, the
// "timeseries" object (sketches + gauges) and the "slo" array.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/hub.hpp"
#include "obs/recorder.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace ncs::obs {

class JsonWriter;

struct TelemetryConfig {
  /// Sampler tick period (one timeseries point per tick).
  Duration period = Duration::milliseconds(10);
  /// Sliding window the sketch quantiles and SLO grades cover.
  Duration window = Duration::milliseconds(100);
  /// Ring granularity: the window ages out in window/subwindows steps.
  int subwindows = 10;
  /// Flight-recorder ring slots per host.
  std::size_t recorder_capacity = 256;
};

class TelemetrySampler {
 public:
  /// Counter tracks ("<name>/p99_us", probes verbatim) go to `obs.trace`
  /// when it is on.
  TelemetrySampler(sim::Engine& engine, TelemetryConfig cfg, const Hub& obs = Hub::off());

  const TelemetryConfig& config() const { return cfg_; }

  /// Named sketch, created on first use (stable address; hot paths keep
  /// the pointer). Creation order fixes JSON emission order.
  WindowedSketch& sketch(const std::string& name);
  const WindowedSketch* find_sketch(const std::string& name) const;

  /// Named gauge probe, sampled every tick.
  void probe(std::string name, std::function<double()> fn);

  SloEngine& slo() { return slo_; }
  const SloEngine& slo() const { return slo_; }

  /// Starts ticking at `first`, then every period while keep_going()
  /// (checked after each tick) returns true. One final tick after the
  /// predicate turns false is fine — the predicate gates *rescheduling*.
  void arm(TimePoint first, std::function<bool()> keep_going);

  std::uint64_t ticks() const { return ticks_; }

  struct SketchPoint {
    std::int64_t t_ps;
    std::uint64_t count;  // samples in the window at this tick
    std::int64_t p50_ps;
    std::int64_t p99_ps;
    std::int64_t p999_ps;
  };
  struct GaugePoint {
    std::int64_t t_ps;
    double value;
  };

  const std::vector<SketchPoint>* sketch_series(const std::string& name) const;
  const std::vector<GaugePoint>* gauge_series(const std::string& name) const;

  /// Emits the "telemetry" object's fields (callers open/close it).
  void write_json(JsonWriter& w) const;

 private:
  void tick();

  struct SketchEntry {
    std::string name;
    std::unique_ptr<WindowedSketch> sketch;  // stable across vector growth
    std::vector<SketchPoint> series;
  };
  struct ProbeEntry {
    std::string name;
    std::function<double()> fn;
    std::vector<GaugePoint> series;
  };

  sim::Engine& engine_;
  TelemetryConfig cfg_;
  std::vector<SketchEntry> sketches_;
  std::vector<ProbeEntry> probes_;
  SloEngine slo_;
  const Hub* obs_;
  std::function<bool()> keep_going_;
  std::uint64_t ticks_ = 0;
};

}  // namespace ncs::obs
