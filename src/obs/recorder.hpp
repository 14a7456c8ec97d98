// Fault-triggered flight recorder.
//
// Post-mortem observability for faulty runs: each host (plus one fabric
// ring, host -1, fed by the fault injector) keeps a bounded ring of
// recent moments — profiler end-to-end stamps, fault transitions, typed
// NcsException upcalls, error-control give-ups, SLO hard breaches. In
// steady state the rings just overwrite their oldest slot; nothing is
// written anywhere.
//
// When a failure fires — an exception upcall, an EC give-up, an SLO hard
// breach — the owning module calls trigger(). The *first* trigger of an
// armed recorder dumps every ring, merged and time-sorted, as an
// `ncs-flight-recorder-v1` JSON file plus a trace instant, capturing the
// run's last moments around the failure (the injected fault instant that
// caused it included, because the fabric ring is never evicted by
// per-message stamp traffic). Later triggers are counted but don't dump
// again: the interesting state is what surrounded the *first* failure,
// and a blackout that times out thousands of messages must not write
// thousands of files.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/hub.hpp"

namespace ncs::obs {

class JsonWriter;

class FlightRecorder {
 public:
  enum class EntryKind : std::uint8_t {
    stamp,       // profiler lifecycle moment (e2e fold, rma completion)
    fault,       // injector transition ("sonet down")
    exception,   // typed NcsException upcall
    give_up,     // error control abandoned a message
    slo_breach,  // SLO hard breach
    note,        // anything else
  };

  struct Entry {
    std::int64_t t_ps = 0;
    int host = -1;  // rank, or -1 for the fabric/cluster ring
    EntryKind kind = EntryKind::note;
    std::string what;        // short label ("e2e", "sonet down", "recv_timeout")
    int peer = -1;           // counterpart rank where meaningful
    std::int64_t value = 0;  // latency ps, seq, burn*1000 — kind-dependent
  };

  /// `ring_capacity` slots per host ring. Dump annotations land on a
  /// "flight-recorder" instant track when `obs.trace` is on.
  explicit FlightRecorder(std::size_t ring_capacity = 256, const Hub& obs = Hub::off());

  /// Arms auto-dump: the first trigger() writes the snapshot to `path`.
  void arm(std::string path) { dump_path_ = std::move(path); }

  /// Appends to `host`'s ring (oldest entry overwritten when full).
  void note(int host, EntryKind kind, TimePoint t, std::string what, int peer = -1,
            std::int64_t value = 0);

  /// Records the failure into the ring, then dumps once if armed.
  void trigger(int host, EntryKind kind, TimePoint t, const std::string& reason,
               int peer = -1, std::int64_t value = 0);

  std::uint64_t entries_recorded() const { return recorded_; }
  std::uint64_t triggers() const { return triggers_; }
  std::uint64_t dumps() const { return dumps_; }

  /// All live entries, merged across rings and sorted by (time, host).
  std::vector<Entry> snapshot() const;

  /// The ncs-flight-recorder-v1 document (trigger metadata + snapshot).
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Ring {
    std::vector<Entry> slots;  // capacity-bounded, circular
    std::size_t next = 0;
    std::uint64_t total = 0;
  };

  Ring& ring(int host);

  std::size_t capacity_;
  std::map<int, Ring> rings_;
  std::string dump_path_;
  const Hub* obs_;
  Track track_{-1, "flight-recorder"};
  std::uint64_t recorded_ = 0;
  std::uint64_t triggers_ = 0;
  std::uint64_t dumps_ = 0;
  Entry first_trigger_;
  bool have_trigger_ = false;
};

const char* to_string(FlightRecorder::EntryKind k);

}  // namespace ncs::obs
