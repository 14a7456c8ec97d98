#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"

namespace ncs::obs {

const char* to_string(FlightRecorder::EntryKind k) {
  switch (k) {
    case FlightRecorder::EntryKind::stamp: return "stamp";
    case FlightRecorder::EntryKind::fault: return "fault";
    case FlightRecorder::EntryKind::exception: return "exception";
    case FlightRecorder::EntryKind::give_up: return "give_up";
    case FlightRecorder::EntryKind::slo_breach: return "slo_breach";
    case FlightRecorder::EntryKind::note: return "note";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity, const Hub& obs)
    : capacity_(ring_capacity), obs_(&obs) {
  NCS_ASSERT(ring_capacity >= 1);
}

FlightRecorder::Ring& FlightRecorder::ring(int host) {
  Ring& r = rings_[host];
  if (r.slots.capacity() == 0) r.slots.reserve(capacity_);
  return r;
}

void FlightRecorder::note(int host, EntryKind kind, TimePoint t, std::string what,
                          int peer, std::int64_t value) {
  Ring& r = ring(host);
  Entry e{t.ps(), host, kind, std::move(what), peer, value};
  if (r.slots.size() < capacity_) {
    r.slots.push_back(std::move(e));
  } else {
    r.slots[r.next] = std::move(e);
  }
  r.next = (r.next + 1) % capacity_;
  ++r.total;
  ++recorded_;
}

void FlightRecorder::trigger(int host, EntryKind kind, TimePoint t,
                             const std::string& reason, int peer, std::int64_t value) {
  note(host, kind, t, reason, peer, value);
  ++triggers_;
  if (have_trigger_) return;  // first failure wins; later ones only count
  have_trigger_ = true;
  first_trigger_ = Entry{t.ps(), host, kind, reason, peer, value};
  if (TraceLog* trace = obs_->trace; trace != nullptr)
    trace->instant(track_.id(*trace), "dump: " + reason, "recorder", t);
  if (!dump_path_.empty()) {
    if (write(dump_path_)) {
      ++dumps_;
    } else {
      NCS_WARN("obs", "flight recorder cannot write %s", dump_path_.c_str());
    }
  }
}

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot() const {
  std::vector<Entry> out;
  for (const auto& [host, r] : rings_) {
    (void)host;
    // Oldest-first within the ring: slots starting at `next` when full.
    const std::size_t n = r.slots.size();
    const std::size_t start = n == capacity_ ? r.next : 0;
    for (std::size_t i = 0; i < n; ++i) out.push_back(r.slots[(start + i) % n]);
  }
  std::stable_sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
    return a.host < b.host;
  });
  return out;
}

namespace {
void write_entry(JsonWriter& w, const FlightRecorder::Entry& e) {
  w.begin_object();
  w.field("t_ms", static_cast<double>(e.t_ps) * 1e-9);
  w.field("host", e.host);
  w.field("kind", to_string(e.kind));
  w.field("what", std::string_view(e.what));
  if (e.peer >= 0) w.field("peer", e.peer);
  if (e.value != 0) w.field("value", e.value);
  w.end_object();
}
}  // namespace

std::string FlightRecorder::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "ncs-flight-recorder-v1");
  w.field("ring_capacity", static_cast<std::uint64_t>(capacity_));
  w.field("entries_recorded", recorded_);
  w.field("triggers", triggers_);
  if (have_trigger_) {
    w.key("trigger");
    write_entry(w, first_trigger_);
  }
  w.key("entries").begin_array();
  for (const Entry& e : snapshot()) write_entry(w, e);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool FlightRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f.is_open()) return false;
  f << to_json() << '\n';
  return f.good();
}

}  // namespace ncs::obs
