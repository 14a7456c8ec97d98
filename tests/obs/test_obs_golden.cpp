// Golden observability outputs: two fully instrumented runs whose report,
// flight-recorder dump and Chrome trace are pinned as FNV-1a digests.
//
// Run 1 is HSM on the ATM LAN with every plane and every sink on: RMA
// atomics, NIC-offloaded collectives, retransmit error control through a
// Gilbert-Elliott burst on one host link, and trace + profile + telemetry
// + flight recorder. Run 2 is NSM (NCS over p4/TCP on Ethernet), so the
// trace carries the TCP tracks too.
//
// The report and the recorder dump are pinned byte for byte. The trace is
// pinned after normalising track ids to track names: every event's "tid"
// is replaced by its track's name, metadata records are dropped and the
// events are grouped per track name (in emission order within a track).
// Track numbering may therefore change, but no event may appear, vanish
// or change.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/drivers.hpp"
#include "cluster/report.hpp"
#include "fault/plan.hpp"
#include "rma/engine.hpp"

namespace ncs::obs {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::fnv1a;
using namespace ncs::literals;

std::uint64_t digest(const std::string& s) { return fnv1a(s.data(), s.size()); }

/// Splits the "traceEvents" array of a Chrome trace into its top-level
/// objects (string- and nesting-aware).
std::vector<std::string> split_events(const std::string& doc) {
  std::vector<std::string> out;
  std::size_t i = doc.find('[');
  if (i == std::string::npos) return out;
  int depth = 0;
  bool in_str = false;
  std::size_t begin = 0;
  for (++i; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_str) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_str = false;
      continue;
    }
    if (ch == '"') {
      in_str = true;
    } else if (ch == '{') {
      if (depth++ == 0) begin = i;
    } else if (ch == '}') {
      if (--depth == 0) out.push_back(doc.substr(begin, i - begin + 1));
    } else if (ch == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// The integer value of `"key":N` in a flat event object.
int int_field(const std::string& ev, const std::string& key) {
  const std::size_t at = ev.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::stoi(ev.substr(at + key.size() + 3));
}

/// Digest of the trace with tids resolved to track names (see header).
std::uint64_t normalized_trace_digest(const std::string& doc) {
  const std::vector<std::string> events = split_events(doc);
  std::map<int, std::string> names;
  for (const std::string& ev : events) {
    if (ev.find("\"ph\":\"M\"") == std::string::npos ||
        ev.find("\"thread_name\"") == std::string::npos)
      continue;
    const std::string key = "\"args\":{\"name\":\"";
    const std::size_t at = ev.find(key);
    if (at == std::string::npos) continue;
    const std::size_t b = at + key.size();
    names[int_field(ev, "tid")] = ev.substr(b, ev.find('"', b) - b);
  }
  std::map<std::string, std::vector<std::string>> by_track;
  for (const std::string& ev : events) {
    if (ev.find("\"ph\":\"M\"") != std::string::npos) continue;
    const int tid = int_field(ev, "tid");
    const std::string tid_field = "\"tid\":" + std::to_string(tid);
    std::string body = ev;
    body.erase(body.find(tid_field), tid_field.size());
    by_track[tid == 0 ? std::string("<counters>") : names.at(tid)].push_back(body);
  }
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& [name, list] : by_track) {
    h = fnv1a(name.data(), name.size(), h);
    for (const std::string& body : list) h = fnv1a(body.data(), body.size(), h);
  }
  return h;
}

struct Golden {
  std::uint64_t report = 0;
  std::uint64_t recorder = 0;
  std::uint64_t trace = 0;
  std::size_t trace_events = 0;
  // Coverage: the planes and sinks the digests are meant to cover ran.
  std::uint64_t rma_samples = 0;
  std::uint64_t nic_coll_samples = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t recorder_entries = 0;
  std::uint64_t telemetry_ticks = 0;
  bool tcp_tracks = false;
};

Golden hsm_all_sinks() {
  constexpr int kProcs = 4;
  ClusterConfig cfg = cluster::sun_atm_lan(kProcs);
  cfg.rma_enabled = true;
  cfg.ncs.coll.nic_offload = true;
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit, .rto = 50_ms};
  cfg.faults.seed = 19;
  cfg.faults.link_burst("taxi1", TimePoint::origin() + 200_us, 20_ms,
                        {.p_good_to_bad = 0.2, .p_bad_to_good = 0.3,
                         .loss_good = 0.0, .loss_bad = 0.6});
  Cluster c(cfg);
  c.enable_trace();
  c.enable_telemetry();  // implies profiling and the flight recorder
  c.init_ncs_hsm();

  const Duration makespan = c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    rma::Engine& rma = c.rma(rank);
    rma.create_window(0, 64);
    node.barrier();
    for (int i = 0; i < 4; ++i) rma.fetch_add(0, 0, 0, 1);
    rma.fence();
    while (rma.cq().poll()) {
    }
    const int t = node.t_create([&node, rank] {
      for (int i = 0; i < 3; ++i)
        node.send(0, 0, (rank + 1) % kProcs, Bytes(2000, std::byte{1}));
      for (int i = 0; i < 3; ++i) (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
    });
    node.host().join(node.user_thread(t));
    const std::vector<double> mine{static_cast<double>(rank)};
    (void)node.allreduce_sum(mine);
    node.barrier();
  });

  Golden g;
  g.report = digest(cluster::report_json(c, makespan));
  g.recorder = digest(c.recorder()->to_json());
  c.trace()->import_timeline(c.timeline());
  const std::string trace = c.trace()->chrome_json();
  g.trace = normalized_trace_digest(trace);
  g.trace_events = c.trace()->event_count();
  g.rma_samples = c.profiler()->hist(Layer::rma).count();
  g.nic_coll_samples = c.profiler()->hist(Layer::nic_coll).count();
  for (int r = 0; r < kProcs; ++r)
    g.retransmits += c.node(r).error_control().stats().retransmits;
  g.recorder_entries = c.recorder()->entries_recorded();
  g.telemetry_ticks = c.telemetry()->ticks();
  return g;
}

Golden nsm_traced() {
  constexpr int kProcs = 3;
  Cluster c(cluster::sun_ethernet(kProcs));
  c.enable_trace();
  c.enable_profiling();
  c.init_ncs_nsm();

  const Duration makespan = c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&node, rank] {
      for (int i = 0; i < 3; ++i)
        node.send(0, 0, (rank + 1) % kProcs, Bytes(3000, std::byte{2}));
      for (int i = 0; i < 3; ++i) (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
    });
    node.host().join(node.user_thread(t));
    node.barrier();
  });

  Golden g;
  g.report = digest(cluster::report_json(c, makespan));
  c.trace()->import_timeline(c.timeline());
  const std::string trace = c.trace()->chrome_json();
  g.trace = normalized_trace_digest(trace);
  g.trace_events = c.trace()->event_count();
  g.tcp_tracks = trace.find("\"cat\":\"tcp\"") != std::string::npos;
  return g;
}

TEST(ObsGolden, NormalizedTraceDigestIgnoresTrackNumbering) {
  TraceLog a;
  const int a0 = a.track("x");
  const int a1 = a.track("y");
  a.instant(a0, "e1", "c", TimePoint::origin() + 1_us);
  a.instant(a1, "e2", "c", TimePoint::origin() + 2_us);
  TraceLog b;
  const int b1 = b.track("y");
  const int b0 = b.track("x");
  b.track("z");  // a track without events is not an event
  b.instant(b0, "e1", "c", TimePoint::origin() + 1_us);
  b.instant(b1, "e2", "c", TimePoint::origin() + 2_us);
  EXPECT_EQ(normalized_trace_digest(a.chrome_json()), normalized_trace_digest(b.chrome_json()));
  b.instant(b1, "e3", "c", TimePoint::origin() + 3_us);
  EXPECT_NE(normalized_trace_digest(a.chrome_json()), normalized_trace_digest(b.chrome_json()));
}

TEST(ObsGolden, HsmAllSinksOutputsArePinned) {
  const Golden g = hsm_all_sinks();
  EXPECT_EQ(g.report, 0xacde9c331e6ae622ull) << std::hex << g.report;
  EXPECT_EQ(g.recorder, 0x25c439154c9d934cull) << std::hex << g.recorder;
  EXPECT_EQ(g.trace, 0x052f32bcb3d124bbull) << std::hex << g.trace;
  EXPECT_EQ(g.trace_events, 3464u);
  EXPECT_GT(g.rma_samples, 0u);
  EXPECT_GT(g.nic_coll_samples, 0u);
  EXPECT_GT(g.retransmits, 0u);
  EXPECT_GT(g.recorder_entries, 0u);
  EXPECT_GT(g.telemetry_ticks, 0u);
}

TEST(ObsGolden, NsmTracedOutputsArePinned) {
  const Golden g = nsm_traced();
  EXPECT_EQ(g.report, 0x3ee1189a15ace79dull) << std::hex << g.report;
  EXPECT_EQ(g.trace, 0xc3d970d05ceb8b3aull) << std::hex << g.trace;
  EXPECT_EQ(g.trace_events, 397u);
  EXPECT_TRUE(g.tcp_tracks);
}

}  // namespace
}  // namespace ncs::obs
