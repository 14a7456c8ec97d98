#include "obs/telemetry.hpp"

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace ncs::obs {

TelemetrySampler::TelemetrySampler(sim::Engine& engine, TelemetryConfig cfg,
                                   const Hub& obs)
    : engine_(engine), cfg_(cfg), obs_(&obs) {
  NCS_ASSERT(cfg_.period.ps() > 0);
}

WindowedSketch& TelemetrySampler::sketch(const std::string& name) {
  for (SketchEntry& e : sketches_)
    if (e.name == name) return *e.sketch;
  sketches_.push_back(
      {name, std::make_unique<WindowedSketch>(cfg_.window, cfg_.subwindows), {}});
  return *sketches_.back().sketch;
}

const WindowedSketch* TelemetrySampler::find_sketch(const std::string& name) const {
  for (const SketchEntry& e : sketches_)
    if (e.name == name) return e.sketch.get();
  return nullptr;
}

void TelemetrySampler::probe(std::string name, std::function<double()> fn) {
  NCS_ASSERT(fn != nullptr);
  probes_.push_back({std::move(name), std::move(fn), {}});
}

const std::vector<TelemetrySampler::SketchPoint>* TelemetrySampler::sketch_series(
    const std::string& name) const {
  for (const SketchEntry& e : sketches_)
    if (e.name == name) return &e.series;
  return nullptr;
}

const std::vector<TelemetrySampler::GaugePoint>* TelemetrySampler::gauge_series(
    const std::string& name) const {
  for (const ProbeEntry& e : probes_)
    if (e.name == name) return &e.series;
  return nullptr;
}

void TelemetrySampler::arm(TimePoint first, std::function<bool()> keep_going) {
  NCS_ASSERT(keep_going != nullptr);
  keep_going_ = std::move(keep_going);
  engine_.schedule_at(first, [this] { tick(); });
}

void TelemetrySampler::tick() {
  const TimePoint now = engine_.now();
  ++ticks_;
  constexpr double kPsToUs = 1e-6;
  TraceLog* const trace = obs_->trace;

  for (SketchEntry& e : sketches_) {
    e.sketch->advance_to(now);
    const Histogram window = e.sketch->window_hist();
    const SketchPoint p{now.ps(), window.count(), window.quantile(0.50),
                        window.quantile(0.99), window.quantile(0.999)};
    e.series.push_back(p);
    if (trace != nullptr) {
      trace->counter(e.name + "/p99_us", now, static_cast<double>(p.p99_ps) * kPsToUs);
      trace->counter(e.name + "/p999_us", now, static_cast<double>(p.p999_ps) * kPsToUs);
      trace->counter(e.name + "/window_count", now, static_cast<double>(p.count));
    }
  }

  for (ProbeEntry& e : probes_) {
    const double v = e.fn();
    e.series.push_back({now.ps(), v});
    if (trace != nullptr) trace->counter(e.name, now, v);
  }

  slo_.evaluate(now);
  if (trace != nullptr) {
    for (const SloEngine::State& s : slo_.states())
      trace->counter("slo/" + s.spec.name + "/burn", now, s.last_burn);
  }

  if (keep_going_()) engine_.schedule_after(cfg_.period, [this] { tick(); });
}

void TelemetrySampler::write_json(JsonWriter& w) const {
  w.field("period_us", static_cast<double>(cfg_.period.ps()) * 1e-6);
  w.field("window_us", static_cast<double>(cfg_.window.ps()) * 1e-6);
  w.field("subwindows", cfg_.subwindows);
  w.field("ticks", ticks_);

  constexpr double kPsToUs = 1e-6;
  w.key("timeseries").begin_object();
  w.key("sketches").begin_object();
  for (const SketchEntry& e : sketches_) {
    w.key(e.name).begin_object();
    // Run-total tail latency next to the series so summaries don't replay it.
    w.key("total").begin_object();
    e.sketch->total().write_json(w);
    w.end_object();
    w.key("points").begin_array();
    for (const SketchPoint& p : e.series) {
      w.begin_object();
      w.field("t_ms", static_cast<double>(p.t_ps) * 1e-9);
      w.field("count", p.count);
      w.field("p50_us", static_cast<double>(p.p50_ps) * kPsToUs);
      w.field("p99_us", static_cast<double>(p.p99_ps) * kPsToUs);
      w.field("p999_us", static_cast<double>(p.p999_ps) * kPsToUs);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const ProbeEntry& e : probes_) {
    w.key(e.name).begin_array();
    for (const GaugePoint& p : e.series) {
      w.begin_object();
      w.field("t_ms", static_cast<double>(p.t_ps) * 1e-9);
      w.field("value", p.value);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();

  slo_.write_json(w);
}

}  // namespace ncs::obs
