// Event-core scale sweep: how far the simulator scales in P (ROADMAP item
// "scale the simulator itself").
//
// Two stages:
//
//   core   Synthetic event-core stress at P hosts — per-host message
//          chains with RTO re-arm/cancel, same-time cell storms and
//          Burst-sized closures, run back-to-back on the calendar queue
//          and on the legacy std::map queue, alternating three times per
//          point so a slow machine phase hits both; each side keeps its
//          best rep (wall-clock on a shared machine only ever measures
//          too slow).
//          Reports wall-clock events/sec for both and the speedup; the
//          run fails if the calendar queue is not at least 5x the
//          std::map queue at P >= 256 (3x under --fast, whose shrunken
//          budget leaves the P = 1024 points ramp-dominated). The same
//          claim without a clock: the calendar's own work (insert-walk
//          steps + bucket probes, sim::Engine::Stats) per event must stay
//          at or under 4.0 at every P, in both budgets — the fitted
//          geometry measures at most 2.96 (P = 16), and a misfit one
//          walks long lists or scans empty buckets on every event.
//
//   ring   Full-stack messages/sec: P NCS/HSM processes on the multi-site
//          SONET WAN (chain of LAN stars), nearest-neighbour ring traffic
//          over sparsely provisioned PVCs, up to P = 1024 (P = 4096 in the
//          full sweep). Set-up (cluster construction + init_ncs_hsm: wall
//          seconds and RSS growth) is reported apart from the steady-state
//          rates; the full sweep fails if init at P = 4096 grows RSS by
//          200 MB or more. P = 10240 stays out: its 40,960 fiber stacks
//          need 81,920 mappings, above the usual vm.max_map_count (65,530).
//
// Wall-clock rates (events_per_sec, msgs_per_sec, speedup) are the
// higher-is-better metric class in tools/bench_diff.py; simulated-time
// fields stay deterministic and diff exactly. `--fast` shrinks the event
// and message budgets for CI; `--json[=path]` emits ncs-bench-v1.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "atm/cell_arena.hpp"
#include "cluster/bench_json.hpp"
#include "cluster/bench_opts.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

using namespace ncs;
using namespace ncs::cluster;

namespace {

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Resident set size of this process in MB (Linux /proc), after handing
/// freed heap back to the kernel so a later delta counts fresh memory
/// instead of reusing what an earlier point freed.
double rss_mb() {
  ::malloc_trim(0);
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.starts_with("VmRSS:")) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

struct CorePoint {
  double events_per_sec = 0;
  std::uint64_t processed = 0;
  /// Calendar insert-walk steps + bucket probes per event (0 on std::map).
  double work_per_event = 0;
};

/// The hot event mix of a busy simulated host, multiplied by P: short
/// message chains, a far-future retransmit timer re-armed (cancel + new)
/// on every message, and bursts of same-timestamp cell events. Closures
/// are padded to the ~80-byte Burst-delivery size so the EventFn inline
/// path is what gets measured.
CorePoint core_stress(sim::Engine::QueueKind kind, int n_hosts,
                      std::uint64_t min_events) {
  // A handful of concurrent chains per host, like the paper's applications
  // (the JPEG pipeline keeps ~5 user threads per process in flight).
  constexpr int kChainsPerHost = 4;
  sim::Engine e{kind};
  Rng rng{0x5CA1Eu + static_cast<std::uint64_t>(n_hosts)};
  const int chains = n_hosts * kChainsPerHost;
  // Enough ticks per chain that steady state, not ramp-up/drain, is what
  // gets measured — at P=1024 that is 4096 concurrent chains.
  const std::uint64_t target_events =
      std::max(min_events, static_cast<std::uint64_t>(chains) * 48);
  std::vector<sim::EventId> rto(static_cast<std::size_t>(chains), 0);
  std::uint64_t fired = 0;

  struct Pad {
    unsigned char bytes[56];
  };
  Pad pad;
  std::memset(pad.bytes, 0, sizeof pad.bytes);

  std::function<void(int)> tick = [&](int c) {
    const auto uc = static_cast<std::size_t>(c);
    ++fired;
    if (rto[uc] != 0) e.cancel(rto[uc]);
    rto[uc] = e.schedule_after(Duration::milliseconds(10), [&rto, uc] { rto[uc] = 0; });
    if (fired >= target_events) return;
    // The message's cell pipeline: a few wire-time events on a sub-µs
    // lattice (53-byte cells at TAXI speed) between the µs-spaced ticks.
    for (int k = 1; k <= 3; ++k)
      e.schedule_after(Duration::nanoseconds(static_cast<double>(k) * 3030.0),
                       [&fired, pad] {
                         (void)pad;
                         ++fired;
                       });
    const auto gap = Duration::microseconds(static_cast<double>(1 + rng.next_below(50)));
    e.schedule_after(gap, [&tick, pad, c] {
      (void)pad;
      tick(c);
    });
    if ((fired & 7u) == 0) {
      for (int k = 0; k < 4; ++k)
        e.schedule_after(Duration::microseconds(5), [&fired, pad] {
          (void)pad;
          ++fired;
        });
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < chains; ++c)
    e.schedule_after(Duration::microseconds(static_cast<double>(rng.next_below(50))),
                     [&tick, pad, c] {
                       (void)pad;
                       tick(c);
                     });
  e.run();
  const double wall = wall_since(t0);
  const sim::Engine::Stats& st = e.stats();
  return {static_cast<double>(e.processed()) / wall, e.processed(),
          static_cast<double>(st.insert_steps + st.bucket_probes) /
              static_cast<double>(e.processed())};
}

struct RingPoint {
  double setup_sec = 0;    // Cluster construction + init_ncs_hsm, wall clock
  double init_rss_mb = 0;  // RSS growth over the same span
  double wall_msgs_per_sec = 0;
  double wall_events_per_sec = 0;
  double sim_elapsed_sec = 0;
  std::uint64_t events = 0;
};

/// Full NCS/HSM stack on the multi-site WAN chain: every rank streams
/// `msgs_per_host` 1 KB messages to its right neighbour and drains the
/// same count from its left. Only the ring pairs are provisioned.
RingPoint ring_throughput(int n_procs, int msgs_per_host) {
  ClusterConfig cfg = nynet_wan_multi(n_procs, std::min(8, std::max(1, n_procs / 2)));
  for (int i = 0; i < n_procs; ++i) {
    cfg.wan_provision.emplace_back(i, (i + 1) % n_procs);
    cfg.wan_provision.emplace_back((i + 1) % n_procs, i);  // ack/credit path
  }

  RingPoint p;
  const double rss0 = rss_mb();
  const auto setup0 = std::chrono::steady_clock::now();
  Cluster c(cfg);
  c.init_ncs_hsm();
  p.setup_sec = wall_since(setup0);
  p.init_rss_mb = rss_mb() - rss0;
  const Bytes payload(1024, std::byte{0x5A});

  const auto t0 = std::chrono::steady_clock::now();
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      const int dst = (rank + 1) % n_procs;
      for (int m = 0; m < msgs_per_host; ++m) node.send(0, 0, dst, payload);
      for (int m = 0; m < msgs_per_host; ++m)
        (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
    });
    node.host().join(node.user_thread(t));
  });
  const double wall = wall_since(t0);

  p.events = c.engine().processed();
  p.sim_elapsed_sec = (c.engine().now() - TimePoint::origin()).sec();
  const double msgs = static_cast<double>(n_procs) * msgs_per_host;
  p.wall_msgs_per_sec = msgs / wall;
  p.wall_events_per_sec = static_cast<double>(p.events) / wall;
  return p;
}

struct TelemetryPoint {
  BenchTelemetry t;
  double sim_elapsed_sec = 0;
};

/// The ring workload again, with the live telemetry plane on: windowed
/// e2e sketches sampled every period, a generous latency SLO (the ring is
/// fault-free; its compliance must be 1.0), counter tracks when tracing.
TelemetryPoint telemetry_ring(int n_procs, int msgs_per_host,
                              const BenchOptions& opts) {
  ClusterConfig cfg = nynet_wan_multi(n_procs, std::min(8, std::max(1, n_procs / 2)));
  for (int i = 0; i < n_procs; ++i) {
    cfg.wan_provision.emplace_back(i, (i + 1) % n_procs);
    cfg.wan_provision.emplace_back((i + 1) % n_procs, i);
  }
  opts.apply(&cfg, "scale_sweep_p" + std::to_string(n_procs));
  cfg.telemetry = true;
  obs::SloSpec slo;
  slo.name = "e2e_p99_under_200ms";
  slo.kind = obs::SloKind::latency;
  slo.sketch = "mps/e2e";
  slo.threshold = Duration::milliseconds(200);
  slo.target = 0.99;
  cfg.slos.push_back(slo);

  Cluster c(cfg);
  c.init_ncs_hsm();
  const Bytes payload(1024, std::byte{0x5A});
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      const int dst = (rank + 1) % n_procs;
      for (int m = 0; m < msgs_per_host; ++m) node.send(0, 0, dst, payload);
      for (int m = 0; m < msgs_per_host; ++m)
        (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
    });
    node.host().join(node.user_thread(t));
  });

  TelemetryPoint tp;
  tp.sim_elapsed_sec = (c.engine().now() - TimePoint::origin()).sec();
  tp.t = fold_telemetry(c);
  return tp;
}

/// Detailed-cells LAN traffic with the CellArena pool warmed by one run;
/// the measured run must serve every SAR segmentation from the pool.
struct ArenaPoint {
  std::uint64_t acquires = 0;
  std::uint64_t heap_allocs = 0;
};

ArenaPoint arena_census(int msgs) {
  const auto traffic = [msgs] {
    ClusterConfig cfg = sun_atm_lan(4);
    cfg.nic.detailed_cells = true;
    Cluster c(cfg);
    c.init_ncs_hsm();
    const Bytes payload(4096, std::byte{0x5A});
    c.run([&](int rank) {
      mps::Node& node = c.node(rank);
      const int t = node.t_create([&node, rank, &payload, msgs] {
        const int dst = (rank + 1) % 4;
        for (int m = 0; m < msgs; ++m) node.send(0, 0, dst, payload);
        for (int m = 0; m < msgs; ++m)
          (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
      });
      node.host().join(node.user_thread(t));
    });
  };
  traffic();  // warm: the pool learns the train sizes this workload needs
  atm::CellArena::reset_census();
  traffic();  // measured: steady state must not touch the heap
  return {atm::CellArena::census().acquires, atm::CellArena::census().heap_allocs};
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("scale_sweep");
  const BenchOptions opts = parse_bench_options(argc, argv);
  bool fast = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;

  const std::vector<int> sweep = {4, 16, 64, 256, 1024};
  // Set-up memory gate of the full ring sweep (see the header).
  constexpr int kInitGateProcs = 4096;
  constexpr double kInitGateMb = 200;
  const std::uint64_t core_events = fast ? 200'000 : 800'000;

  std::printf("Event-core scale sweep (%s budgets)\n\n", fast ? "fast" : "full");
  std::printf("core: >= %llu events through both queue backends per point\n",
              static_cast<unsigned long long>(core_events));
  std::printf("%6s %16s %16s %9s %10s\n", "P", "calendar ev/s", "std::map ev/s", "speedup",
              "work/ev");

  const double gate = fast ? 3.0 : 5.0;
  constexpr double kWorkGate = 4.0;  // calendar steps + probes per event
  bool speedup_ok = true;
  bool work_ok = true;
  sim::EventFn::reset_census();
  constexpr int kCoreReps = 3;
  for (const int p : sweep) {
    CorePoint cal, leg;  // alternating reps, each side's best (see the header)
    for (int rep = 0; rep < kCoreReps; ++rep) {
      const CorePoint c = core_stress(sim::Engine::QueueKind::calendar, p, core_events);
      const CorePoint l = core_stress(sim::Engine::QueueKind::legacy_map, p, core_events);
      if (c.events_per_sec > cal.events_per_sec) cal = c;
      if (l.events_per_sec > leg.events_per_sec) leg = l;
    }
    const double speedup = cal.events_per_sec / leg.events_per_sec;
    if (p >= 256 && speedup < gate) speedup_ok = false;
    if (cal.work_per_event > kWorkGate) work_ok = false;
    std::printf("%6d %16.0f %16.0f %8.2fx %10.3f\n", p, cal.events_per_sec, leg.events_per_sec,
                speedup, cal.work_per_event);
    report.row();
    report.set("stage", std::string("core"));
    report.set("procs", p);
    report.set("events", cal.processed);
    report.set("events_per_sec", cal.events_per_sec);
    report.set("legacy_events_per_sec", leg.events_per_sec);
    report.set("speedup_vs_legacy", speedup);
    report.set("calendar_work_per_event", cal.work_per_event);
  }
  // The zero-allocation claim, enforced: every closure the stress schedules
  // must fit the EventFn inline buffer.
  const auto census = sim::EventFn::census();
  const bool inline_only = census.heap_constructions == 0;

  std::printf("\nring: NCS/HSM neighbour ring on the multi-site WAN chain\n");
  std::printf("%6s %6s %9s %11s %14s %16s %14s\n", "P", "msgs", "setup-s", "init-RSS-MB",
              "sim msgs/s", "wall msgs/s", "wall ev/s");
  std::vector<int> ring_sweep = sweep;
  if (!fast) ring_sweep.push_back(kInitGateProcs);
  bool init_rss_ok = true;
  for (const int p : ring_sweep) {
    const int msgs = std::max(2, (fast ? 2048 : 16384) / p);
    const RingPoint r = ring_throughput(p, msgs);
    const double sim_rate = static_cast<double>(p) * msgs / r.sim_elapsed_sec;
    if (p == kInitGateProcs && r.init_rss_mb >= kInitGateMb) init_rss_ok = false;
    std::printf("%6d %6d %9.3f %11.1f %14.0f %16.0f %14.0f\n", p, msgs, r.setup_sec,
                r.init_rss_mb, sim_rate, r.wall_msgs_per_sec, r.wall_events_per_sec);
    report.row();
    report.set("stage", std::string("ring"));
    report.set("procs", p);
    report.set("msgs_per_host", msgs);
    report.set("sim_events", r.events);
    report.set("sim_elapsed_sec", r.sim_elapsed_sec);
    report.set("msgs_per_sec", r.wall_msgs_per_sec);
    report.set("events_per_sec", r.wall_events_per_sec);
    // Host set-up cost is wall clock and allocator state, so it cannot be
    // diffed at the exact tolerance of the --fast rows CI compares against
    // a recorded baseline; only the full sweep's JSON carries it.
    if (!fast) {
      report.set("setup_sec", r.setup_sec);
      report.set("init_rss_mb", r.init_rss_mb);
    }
  }

  // Telemetry stage (--telemetry): tail-latency series + SLO grades over
  // the same ring workload, at CI-sized P. Fault-free, so the generous
  // latency objective must hold every window.
  bool telemetry_ok = true;
  if (opts.telemetry) {
    std::printf("\ntelemetry: windowed p99/p99.9 + SLO grades on the WAN ring\n");
    std::printf("%6s %6s %10s %12s %12s %11s %9s\n", "P", "msgs", "ticks",
                "e2e p99-us", "e2e p99.9-us", "compliance", "max-burn");
    for (const int p : {4, 16}) {
      const int msgs = std::max(2, (fast ? 2048 : 16384) / p);
      const TelemetryPoint tp = telemetry_ring(p, msgs, opts);
      if (tp.t.ticks == 0 || tp.t.slo_compliance < 1.0) telemetry_ok = false;
      std::printf("%6d %6d %10llu %12.1f %12.1f %11.4f %9.2f\n", p, msgs,
                  static_cast<unsigned long long>(tp.t.ticks), tp.t.e2e_p99_us,
                  tp.t.e2e_p999_us, tp.t.slo_compliance, tp.t.slo_max_burn);
      report.row();
      report.set("stage", std::string("telemetry"));
      report.set("procs", p);
      report.set("msgs_per_host", msgs);
      report.set("telemetry_ticks", tp.t.ticks);
      report.set("sim_elapsed_sec", tp.sim_elapsed_sec);
      report.set("e2e_p99_us", tp.t.e2e_p99_us);
      report.set("e2e_p999_us", tp.t.e2e_p999_us);
      report.set("slo_compliance", tp.t.slo_compliance);
      report.set("slo_max_burn", tp.t.slo_max_burn);
    }
    std::printf("fault-free SLO held every window: %s\n", telemetry_ok ? "yes" : "NO");
  }

  // The SAR data-path analogue of the EventFn census: with the pool warm,
  // steady-state detailed-cells traffic must be allocation-free.
  const ArenaPoint arena = arena_census(fast ? 8 : 24);
  const bool arena_ok = arena.heap_allocs == 0 && arena.acquires > 0;

  const bool all_ok =
      speedup_ok && work_ok && inline_only && arena_ok && telemetry_ok && init_rss_ok;
  std::printf("\ncalendar >= %.0fx std::map at P >= 256: %s\n", gate, speedup_ok ? "yes" : "NO");
  std::printf("calendar work <= %.1f steps+probes per event at every P: %s\n", kWorkGate,
              work_ok ? "yes" : "NO");
  if (!fast)
    std::printf("init_ncs_hsm at P = %d grows RSS under %.0f MB: %s\n", kInitGateProcs,
                kInitGateMb, init_rss_ok ? "yes" : "NO");
  std::printf("event closures all inline (no heap): %s\n", inline_only ? "yes" : "NO");
  std::printf("cell trains pooled (warm run: %llu acquires, %llu heap allocs): %s\n",
              static_cast<unsigned long long>(arena.acquires),
              static_cast<unsigned long long>(arena.heap_allocs), arena_ok ? "yes" : "NO");
  report.summary("speedup_ok", speedup_ok);
  report.summary("calendar_work_ok", work_ok);
  if (!fast) report.summary("init_rss_ok", init_rss_ok);
  report.summary("event_fn_heap_constructions",
                 static_cast<std::int64_t>(census.heap_constructions));
  report.summary("cell_arena_acquires", static_cast<std::int64_t>(arena.acquires));
  report.summary("cell_arena_heap_allocs", static_cast<std::int64_t>(arena.heap_allocs));
  if (opts.telemetry) report.summary("telemetry_ok", telemetry_ok);
  report.summary("all_ok", all_ok);
  if (opts.json) report.emit(opts.json_path);
  return all_ok ? 0 : 1;
}
