#include "obs/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ncs::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::duration: return "duration";
  }
  return "?";
}

double MetricsRegistry::Entry::read() const {
  switch (kind) {
    case MetricKind::counter: return static_cast<double>(counter());
    case MetricKind::gauge: return gauge();
    case MetricKind::duration: return duration().sec();
  }
  return 0.0;
}

void MetricsRegistry::insert(Entry e) {
  NCS_ASSERT_MSG(!e.key.empty(), "metric key must not be empty");
  const bool fresh = index_.emplace(e.key, entries_.size()).second;
  NCS_ASSERT_MSG(fresh, "duplicate metric key");
  entries_.push_back(std::move(e));
}

void MetricsRegistry::counter(std::string key, CounterFn read) {
  NCS_ASSERT(read != nullptr);
  insert(Entry{std::move(key), MetricKind::counter, std::move(read), nullptr, nullptr});
}

void MetricsRegistry::gauge(std::string key, GaugeFn read) {
  NCS_ASSERT(read != nullptr);
  insert(Entry{std::move(key), MetricKind::gauge, nullptr, std::move(read), nullptr});
}

void MetricsRegistry::duration(std::string key, DurationFn read) {
  NCS_ASSERT(read != nullptr);
  insert(Entry{std::move(key), MetricKind::duration, nullptr, nullptr, std::move(read)});
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

bool MetricsRegistry::contains(std::string_view key) const { return find(key) != nullptr; }

std::uint64_t MetricsRegistry::counter_value(std::string_view key) const {
  const Entry* e = find(key);
  NCS_ASSERT_MSG(e != nullptr, "unknown metric key");
  NCS_ASSERT_MSG(e->kind == MetricKind::counter, "metric is not a counter");
  return e->counter();
}

double MetricsRegistry::value(std::string_view key) const {
  const Entry* e = find(key);
  NCS_ASSERT_MSG(e != nullptr, "unknown metric key");
  return e->read();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back({e.key, e.kind, e.read()});
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.key < b.key; });
  return out;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.key("metrics").begin_object();
  for (const Sample& s : snapshot()) {
    if (s.kind == MetricKind::counter) {
      w.field(s.key, static_cast<std::uint64_t>(s.value));
    } else {
      w.field(s.key, s.value);
    }
  }
  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  write_json(w);
  w.end_object();
  return std::move(w).str();
}

}  // namespace ncs::obs
