// Run-wide metrics registry.
//
// Every module in the system keeps a per-instance `stats_` struct (message
// counts, stalls, retransmissions, CPU busy time, ...). Historically those
// were dead-end fields: each bench hand-picked a few for its printout and
// the rest were invisible. The registry turns them into one hierarchical,
// machine-readable namespace — `host/module/name`, e.g.
// `p0/mps/sends` or `p2/mts/cpu_busy` — without changing how modules count.
//
// Registration is pull-model: a module registers a *reader* (usually a
// lambda capturing `this`) per stat field, and the registry samples it at
// snapshot time. The hot paths keep bumping plain struct fields; with no
// registry attached nothing changes at all — zero overhead when disabled,
// and registry totals are equal to the legacy per-module stats by
// construction (asserted by tests/obs/test_metrics.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "obs/json.hpp"

namespace ncs::obs {

enum class MetricKind : std::uint8_t { counter, gauge, duration };

const char* to_string(MetricKind k);

class MetricsRegistry {
 public:
  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;
  using DurationFn = std::function<Duration()>;

  /// Monotone event count. The pointer form reads a live stats field.
  void counter(std::string key, CounterFn read);
  void counter(std::string key, const std::uint64_t* src) {
    counter(std::move(key), [src] { return *src; });
  }

  /// Instantaneous level (queue depth, window occupancy, ...).
  void gauge(std::string key, GaugeFn read);

  /// Accumulated simulated time.
  void duration(std::string key, DurationFn read);
  void duration(std::string key, const Duration* src) {
    duration(std::move(key), [src] { return *src; });
  }

  struct Sample {
    std::string key;
    MetricKind kind;
    /// counters: exact count; durations: seconds; gauges: raw value.
    double value;
  };

  /// Samples every registered metric, sorted by key.
  std::vector<Sample> snapshot() const;

  std::size_t size() const { return entries_.size(); }
  bool contains(std::string_view key) const;

  /// Current value of one counter; asserts the key exists and is a counter.
  std::uint64_t counter_value(std::string_view key) const;
  /// Current value of one metric in canonical units (see Sample::value).
  double value(std::string_view key) const;

  /// Writes `"metrics": {key: value, ...}` — callers embed it in a larger
  /// document. Durations are reported in seconds.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  struct Entry {
    std::string key;
    MetricKind kind;
    CounterFn counter;
    GaugeFn gauge;
    DurationFn duration;
    double read() const;
  };

  const Entry* find(std::string_view key) const;
  void insert(Entry e);

  /// Transparent hash so find() looks a string_view up without a copy.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const { return std::hash<std::string_view>{}(k); }
  };

  std::vector<Entry> entries_;  // registration order
  /// Key -> position in entries_: duplicate checks and lookups are O(1),
  /// so registering a P=1024 cluster's keys is linear, not quadratic.
  std::unordered_map<std::string, std::size_t, KeyHash, std::equal_to<>> index_;
};

}  // namespace ncs::obs
