// Chrome-trace / Perfetto span log.
//
// One TraceLog collects timestamped events from every instrumented layer of
// a run — scheduler dispatch/charge/block, MPS send/recv and flow-control
// stalls, NIC DMA/SAR, switch forwarding, TCP segmentation and retransmit
// timers — and serializes them in the Chrome Trace Event format (JSON), so
// a whole simulated cluster run opens in chrome://tracing or
// https://ui.perfetto.dev as a zoomable timeline.
//
// Tracks map to Chrome's (pid, tid) pairs: every named track becomes a tid
// under one synthetic process, labeled via thread_name metadata. track()
// deduplicates by name, so a module and the sim::Timeline import can share
// a track. Simulated picoseconds are exported as fractional microseconds
// (the format's unit).
//
// Modules reach the log through their obs::Hub (obs/hub.hpp) and check its
// `trace` field at every emission site — tracing disabled costs one
// predictable branch. Track ids are resolved by name on first emission
// (obs::Track), so tids follow first-use order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/timeline.hpp"

namespace ncs::obs {

class TraceLog {
 public:
  /// Returns the track (Chrome tid) with this name, creating it if new.
  int track(const std::string& name);

  int track_count() const { return static_cast<int>(tracks_.size()); }
  const std::string& track_name(int t) const {
    return tracks_[static_cast<std::size_t>(t)];
  }

  /// Complete span ("X" phase): [begin, begin+dur) on `track`.
  void complete(int track, std::string name, const char* category, TimePoint begin,
                Duration dur);

  /// Instant event ("i" phase, thread scope).
  void instant(int track, std::string name, const char* category, TimePoint t);

  /// Counter sample ("C" phase): plots `value` over time under `name`.
  void counter(std::string name, TimePoint t, double value);

  /// Flow events ("s" / "f" phases): Perfetto draws an arrow from the slice
  /// enclosing the start event to the slice enclosing the end event, even
  /// across tracks — this is what stitches a send span on one host to the
  /// matching recv span on another. Events pair by id (see msg_flow_id);
  /// `t` must fall strictly inside the span the arrow should attach to.
  void flow_start(int track, std::string name, const char* category, TimePoint t,
                  std::uint64_t id);
  void flow_end(int track, std::string name, const char* category, TimePoint t,
                std::uint64_t id);

  /// Imports a per-thread activity timeline: one track per timeline track
  /// (same name), one span per interval, named after the activity
  /// (compute / communicate / overhead / idle). Call after
  /// Timeline::finish() so every interval is closed.
  void import_timeline(const sim::Timeline& tl);

  std::size_t event_count() const { return events_.size(); }

  /// The full document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
  std::string chrome_json() const;

  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'X', 'i', 'C', 's', 'f'
    int track;
    std::string name;
    const char* category;
    std::int64_t ts_ps;
    std::int64_t dur_ps;   // X only
    double value;          // C only
    std::uint64_t id = 0;  // s/f only
  };

  std::vector<std::string> tracks_;
  std::vector<Event> events_;
};

}  // namespace ncs::obs
