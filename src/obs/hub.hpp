// The one observability attach point.
//
// A Hub is a plain set of sink pointers — trace log, profiler, flight
// recorder, activity timeline and the two telemetry latency sketches — where
// null means that sink is off. The Cluster owns one Hub and hands its
// address to every module once, at construction; modules keep that single
// `const Hub*` and read the field they need at the point of use. Turning a
// sink on is therefore one pointer store in the Hub, and it reaches every
// module, including ones built earlier, with no re-walk. A sink, once set,
// is never swapped for another (cached trace-track ids stay valid).
//
// Modules built alone (unit tests, micro benches) default to Hub::off(),
// the all-null hub: every emission site costs one predictable branch.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace ncs::sim {
class Timeline;
}

namespace ncs::obs {

class Profiler;
class FlightRecorder;
class WindowedSketch;

struct Hub {
  TraceLog* trace = nullptr;
  Profiler* prof = nullptr;
  FlightRecorder* recorder = nullptr;
  sim::Timeline* timeline = nullptr;
  /// Telemetry sketches: "mps/e2e" (profiler end-to-end folds) and
  /// "rma/op" (one-sided post -> completion latency).
  WindowedSketch* e2e_sketch = nullptr;
  WindowedSketch* rma_sketch = nullptr;

  /// The all-null hub: every sink off.
  static const Hub& off() {
    static const Hub hub;
    return hub;
  }
};

/// A trace track named "p<rank><suffix>" (just `suffix` for rank -1),
/// resolved through TraceLog::track the first time a module emits on it.
/// Nothing is built while tracing is off, and modules naming the same
/// track share it (track() dedupes by name).
class Track {
 public:
  Track(int rank, const char* suffix) : rank_(rank), suffix_(suffix) {}

  int id(TraceLog& trace) {
    if (id_ < 0)
      id_ = trace.track(rank_ < 0 ? std::string(suffix_)
                                  : "p" + std::to_string(rank_) + suffix_);
    return id_;
  }

 private:
  int rank_;
  const char* suffix_;
  int id_ = -1;
};

}  // namespace ncs::obs
