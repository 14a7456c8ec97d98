// NCS benchmark driver.
//
//   ncs_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out DIR]
//
// Runs one named workload (wan_ring_p1024, lan_p2p_mix, paper_apps,
// wan_lossy_coll) as repeated, identical experiments until --seconds of host
// time have passed, verifies every output, and prints the metrics as one JSON
// object on the last stdout line:
//   --trace 0  the end-to-end metrics (host medians over the repetitions,
//              simulated values from the first repetition);
//   --trace 1  the per-layer metrics: repetitions alternate untraced and
//              traced (Profiler on, benchmark spans recorded), counts and
//              simulated legs come from the traced ones, host-time layer
//              costs from the untraced ones.
// The benchmark only drives public entry points (Cluster, init_*, run,
// mps::Node calls, the paper-app drivers, metrics(), profiler(),
// engine().processed()) and times each layer from outside those calls.
// NOTES.md states why each workload exists and what each metric means.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/drivers.hpp"
#include "common/rng.hpp"
#include "obs/hist.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "paper_ref.hpp"

namespace perfbench {
namespace {

using namespace ncs;
using namespace ncs::cluster;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t host_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kProcessStart).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) { return fnv1a(&v, sizeof v, h); }

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fold(h, bits);
}

/// A field of /proc/self/status ("VmRSS:", "VmHWM:") in MB.
double proc_status_mb(const char* field) {
  std::ifstream f("/proc/self/status");
  const std::size_t n = std::strlen(field);
  for (std::string line; std::getline(f, line);)
    if (line.compare(0, n, field) == 0) return std::stod(line.substr(n)) / 1024.0;
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of sorted samples.
std::int64_t quantile(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

double ps_to_us(std::int64_t ps) { return static_cast<double>(ps) * 1e-6; }

// --- spans -------------------------------------------------------------

/// One traced interval recorded by the benchmark around a call into a
/// layer. Simulated spans are in picoseconds on track rank*kTracksPerRank +
/// role; host spans are in nanoseconds since process start. `id` is
/// msg_id(src, index) for a message's send and recv spans, step + 1 for a
/// collective (shared by every rank's span of that operation), else 0.
struct Span {
  const char* name;
  bool host;
  int track;
  std::int64_t begin;
  std::int64_t end;
  std::uint64_t id;
};

constexpr int kTracksPerRank = 3;  // 0 = rank main, 1/2 = user threads

// --- one repetition ----------------------------------------------------

struct Rep {
  // Host clock, summed over the clusters of the repetition.
  double build_s = 0, init_s = 0, run_s = 0, teardown_s = 0, wall_s = 0;
  double metrics_s = 0;  // building and reading the metrics() registry
  /// Largest RSS growth over one cluster's construction + init, and the
  /// process count of that cluster.
  double init_rss_mb = 0;
  int init_rss_procs = 0;

  // Simulated clock and exact counts.
  std::int64_t makespan_ps = 0;
  double proc_seconds = 0;  // sum over clusters of n_procs * makespan
  std::vector<std::int64_t> lat_ps;
  std::vector<std::int64_t> allreduce_ps, barrier_ps;
  std::uint64_t attempted = 0, completed = 0, verify_failures = 0, exceptions = 0;
  std::uint64_t failed = 0;  // see failures(), set when the repetition ends
  std::uint64_t events = 0;
  std::map<std::string, double> agg;  // metrics() summed over ranks/clusters
  std::uint64_t nsm_tcp_segments = 0;
  std::vector<obs::Histogram> legs;  // per obs::Layer, traced repetitions only
  /// Simulated fingerprint, in two parts: every cluster's makespan plus the
  /// output digests (all repetitions), and the event counts plus every
  /// metrics() value (repetitions that harvest metrics).
  std::uint64_t run_fp = 0xCBF29CE484222325ull;
  std::uint64_t metrics_fp = 0xCBF29CE484222325ull;
  bool harvested = false;
  std::uint64_t output_digest = 0xCBF29CE484222325ull;
  std::string first_failure;

  // paper_apps: simulated seconds per (app, ethernet?, nodes, ncs?).
  struct AppRun {
    const PaperRow* row;
    bool ncs;
    double elapsed_s;
  };
  std::vector<AppRun> app_runs;

  /// Drops the samples and counters once a repetition only contributes
  /// host times and fingerprints, so peak RSS does not grow with the
  /// number of repetitions.
  void compact() {
    lat_ps = {};
    allreduce_ps = {};
    barrier_ps = {};
    legs = {};
    agg = {};
    app_runs = {};
  }

  void fail(const std::string& why) {
    ++verify_failures;
    if (first_failure.empty()) first_failure = why;
  }
  double agg_value(const std::string& k) const {
    const auto it = agg.find(k);
    return it == agg.end() ? 0.0 : it->second;
  }
};

struct Ctx {
  std::uint64_t seed = 0;
  bool traced = false;
  /// Read metrics() after each run. Building the registry is O(keys^2) in
  /// obs::MetricsRegistry (seconds at P=1024), so only the first untraced
  /// repetition and the traced ones pay it.
  bool harvest_metrics = true;
  std::vector<Span>* spans = nullptr;  // null on untraced repetitions
  std::string out_dir;
};

/// Span id shared by a message's send and recv spans.
std::uint64_t msg_id(int src, std::uint32_t idx) {
  return ((static_cast<std::uint64_t>(src) << 32) | idx) + 1;
}

void sim_span(const Ctx& ctx, const char* name, int track, TimePoint b, TimePoint e,
              std::uint64_t id = 0) {
  if (ctx.spans != nullptr) ctx.spans->push_back({name, false, track, b.ps(), e.ps(), id});
}

void host_span(const Ctx& ctx, const char* name, Clock::time_point b, Clock::time_point e) {
  if (ctx.spans != nullptr) ctx.spans->push_back({name, true, 0, host_ns(b), host_ns(e), 0});
}

/// Drops the "p<rank>/" prefix so per-rank counters sum into one key.
std::string strip_rank(const std::string& key) {
  if (key.size() > 2 && key[0] == 'p' && std::isdigit(static_cast<unsigned char>(key[1]))) {
    const std::size_t slash = key.find('/');
    if (slash != std::string::npos) return key.substr(slash + 1);
  }
  return key;
}

void add_metric(Rep& rep, const std::string& key, double value) {
  rep.agg[strip_rank(key)] += value;
  rep.metrics_fp = fnv1a(key.data(), key.size(), rep.metrics_fp);
  rep.metrics_fp = fold(rep.metrics_fp, value);
}

/// Reads the event count, every metric (when the repetition harvests) and
/// the Profiler legs (traced).
void harvest(Cluster& c, const Ctx& ctx, Rep& rep) {
  rep.events += c.engine().processed();
  rep.exceptions += c.ncs_exception_count();
  if (!ctx.harvest_metrics) return;
  rep.harvested = true;
  rep.metrics_fp = fold(rep.metrics_fp, c.engine().processed());
  const auto t0 = Clock::now();
  const std::vector<obs::MetricsRegistry::Sample> samples = c.metrics().snapshot();
  rep.metrics_s += secs(t0, Clock::now());
  for (const obs::MetricsRegistry::Sample& s : samples) add_metric(rep, s.key, s.value);
  if (const obs::Profiler* prof = c.profiler(); prof != nullptr) {
    rep.legs.resize(obs::kLayerCount);
    for (int l = 0; l < obs::kLayerCount; ++l)
      rep.legs[static_cast<std::size_t>(l)].merge(prof->hist(static_cast<obs::Layer>(l)));
  }
}

void note_init_rss(Rep& rep, double rss_before_mb, int n_procs) {
  const double delta = proc_status_mb("VmRSS:") - rss_before_mb;
  if (delta > rep.init_rss_mb) {
    rep.init_rss_mb = delta;
    rep.init_rss_procs = n_procs;
  }
}

/// One HSM cluster from config to destruction, each phase timed from
/// outside. wall_s covers config built -> cluster destroyed, minus the
/// benchmark's own harvesting.
void experiment(const ClusterConfig& cfg, const Ctx& ctx, Rep& rep,
                const std::function<void(Cluster&, int)>& rank_main) {
  const double rss0 = proc_status_mb("VmRSS:");
  const auto t0 = Clock::now();
  auto c = std::make_unique<Cluster>(cfg);
  const auto t1 = Clock::now();
  if (ctx.traced) c->enable_profiling();
  c->init_ncs_hsm();
  const auto t2 = Clock::now();
  note_init_rss(rep, rss0, cfg.n_procs);
  const auto t3 = Clock::now();
  const Duration makespan = c->run([&](int r) { rank_main(*c, r); });
  const auto t4 = Clock::now();
  harvest(*c, ctx, rep);
  const auto t5 = Clock::now();
  c.reset();
  const auto t6 = Clock::now();

  rep.build_s += secs(t0, t1);
  rep.init_s += secs(t1, t2);
  rep.run_s += secs(t3, t4);
  rep.teardown_s += secs(t5, t6);
  rep.wall_s += secs(t0, t2) + secs(t3, t4) + secs(t5, t6);
  rep.makespan_ps += makespan.ps();
  rep.proc_seconds += cfg.n_procs * makespan.sec();
  rep.run_fp = fold(rep.run_fp, static_cast<std::uint64_t>(makespan.ps()));
  host_span(ctx, "experiment", t0, t6);
  host_span(ctx, "cluster.build", t0, t1);
  host_span(ctx, "cluster.init", t1, t2);
  host_span(ctx, "cluster.run", t3, t4);
  host_span(ctx, "obs.harvest", t4, t5);
  host_span(ctx, "cluster.teardown", t5, t6);
}

// --- payloads ----------------------------------------------------------

/// Layout: [src u32][idx u32][stamp_ps i64][pattern]. The pattern depends
/// only on (seed, src, idx), so a receiver regenerates and compares every
/// byte without a side channel; the stamp is the simulated time of the
/// send call, read back at recv for the call-to-completion latency.
constexpr std::size_t kHeader = 16;

void fill_pattern(std::byte* p, std::size_t n, std::uint64_t key) {
  Rng rng(key);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = rng.next_u64();
    std::memcpy(p + i, &w, n - i);
  }
}

std::uint64_t pattern_key(std::uint64_t seed, int src, std::uint32_t idx) {
  return mix(seed, (static_cast<std::uint64_t>(src) << 32) | idx);
}

Bytes make_payload(std::uint64_t seed, int src, std::uint32_t idx, std::size_t size,
                   TimePoint stamp) {
  Bytes b(size);
  const auto s = static_cast<std::uint32_t>(src);
  const std::int64_t ps = stamp.ps();
  std::memcpy(b.data(), &s, 4);
  std::memcpy(b.data() + 4, &idx, 4);
  std::memcpy(b.data() + 8, &ps, 8);
  fill_pattern(b.data() + kHeader, size - kHeader, pattern_key(seed, src, idx));
  return b;
}

struct Received {
  int src = -1;
  std::uint32_t idx = 0;
  std::int64_t stamp_ps = 0;
};

Received header_of(const Bytes& b) {
  Received r;
  if (b.size() < kHeader) return r;
  std::uint32_t s = 0;
  std::memcpy(&s, b.data(), 4);
  std::memcpy(&r.idx, b.data() + 4, 4);
  std::memcpy(&r.stamp_ps, b.data() + 8, 8);
  r.src = static_cast<int>(s);
  return r;
}

bool pattern_ok(const Bytes& b, std::uint64_t seed, int src, std::uint32_t idx,
                std::size_t size) {
  if (b.size() != size) return false;
  Bytes want(size - kHeader);
  fill_pattern(want.data(), want.size(), pattern_key(seed, src, idx));
  return std::memcmp(want.data(), b.data() + kHeader, want.size()) == 0;
}

/// Checks a delivered message against what its sender generated, records
/// its latency and folds it into the receiving rank's output digest.
void check_delivery(Rep& rep, std::uint64_t& digest, const Bytes& got, std::uint64_t seed,
                    int want_src, std::uint32_t want_idx, std::size_t want_size, TimePoint now) {
  const Received h = header_of(got);
  if (h.src != want_src || h.idx != want_idx || !pattern_ok(got, seed, h.src, h.idx, want_size)) {
    rep.fail("payload mismatch: src " + std::to_string(h.src) + " idx " +
             std::to_string(h.idx) + " (expected src " + std::to_string(want_src) + " idx " +
             std::to_string(want_idx) + ")");
    return;
  }
  ++rep.completed;
  rep.lat_ps.push_back(now.ps() - h.stamp_ps);
  digest = fold(fold(fold(digest, static_cast<std::uint64_t>(h.src)), std::uint64_t{h.idx}),
                static_cast<std::uint64_t>(got.size()));
}

void fold_digests(Rep& rep, const std::vector<std::uint64_t>& per_rank) {
  for (const std::uint64_t d : per_rank) rep.output_digest = fold(rep.output_digest, d);
}

// --- workload: wan_ring_p1024 -----------------------------------------

constexpr int kRingProcs = 1024;
constexpr int kRingSites = 8;
constexpr std::uint32_t kRingMsgs = 32;

/// Seeded sizes, uniform in [768, 1280] B: 1 KiB on average.
std::size_t ring_size(std::uint64_t seed, int src, std::uint32_t idx) {
  return 768 + static_cast<std::size_t>(mix(pattern_key(seed, src, idx), 1) % 513);
}

void wan_ring(const Ctx& ctx, Rep& rep) {
  constexpr int P = kRingProcs;
  ClusterConfig cfg = nynet_wan_multi(P, kRingSites);
  for (int i = 0; i < P; ++i) {
    cfg.wan_provision.emplace_back(i, (i + 1) % P);
    cfg.wan_provision.emplace_back((i + 1) % P, i);  // ack/credit path
  }
  cfg.rma_enabled = true;  // every per-peer plane allocated, none used
  const std::uint64_t seed = ctx.seed;
  rep.attempted += static_cast<std::uint64_t>(P) * kRingMsgs;
  std::vector<std::uint64_t> digests(P, 0xCBF29CE484222325ull);

  experiment(cfg, ctx, rep, [&](Cluster& c, int rank) {
    mps::Node& node = c.node(rank);
    const TimePoint main_begin = c.engine().now();
    const int t = node.t_create([&, rank] {
      const int dst = (rank + 1) % P;
      const int src = (rank + P - 1) % P;
      for (std::uint32_t m = 0; m < kRingMsgs; ++m) {
        const TimePoint b = c.engine().now();
        node.send(0, 0, dst, make_payload(seed, rank, m, ring_size(seed, rank, m), b));
        sim_span(ctx, "mps.send", rank * kTracksPerRank + 1, b, c.engine().now(),
                 msg_id(rank, m));
      }
      for (std::uint32_t m = 0; m < kRingMsgs; ++m) {
        const TimePoint b = c.engine().now();
        const Bytes got = node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
        const TimePoint e = c.engine().now();
        sim_span(ctx, "mps.recv", rank * kTracksPerRank + 1, b, e, msg_id(src, m));
        check_delivery(rep, digests[static_cast<std::size_t>(rank)], got, seed, src, m,
                       ring_size(seed, src, m), e);
      }
    }, mts::kDefaultPriority, "ring");
    node.host().join(node.user_thread(t));
    sim_span(ctx, "app.main", rank * kTracksPerRank, main_begin, c.engine().now());
  });
  fold_digests(rep, digests);
}

// --- workload: lan_p2p_mix --------------------------------------------

constexpr int kLanProcs = 8;
constexpr std::uint32_t kLanMsgs = 7 * 500;  // per rank; a multiple of P-1

/// Seeded log-uniform sizes from 64 B to 64 KiB.
std::size_t lan_size(std::uint64_t seed, int src, std::uint32_t idx) {
  const double u = static_cast<double>(mix(pattern_key(seed, src, idx), 2) >> 11) * 0x1.0p-53;
  return std::min<std::size_t>(65536, static_cast<std::size_t>(64.0 * std::exp2(10.0 * u)));
}

/// Destinations rotate over the other ranks, so each rank receives exactly
/// kLanMsgs messages, kLanMsgs/(P-1) from every peer.
int lan_dst(int src, std::uint32_t idx) {
  return (src + 1 + static_cast<int>(idx % (kLanProcs - 1))) % kLanProcs;
}

void lan_p2p_mix(const Ctx& ctx, Rep& rep) {
  constexpr int P = kLanProcs;
  ClusterConfig cfg = sun_atm_lan(P);
  cfg.ncs.proto.mode = mps::ProtoMode::adaptive;
  const std::uint64_t seed = ctx.seed;
  rep.attempted += static_cast<std::uint64_t>(P) * kLanMsgs;
  std::vector<std::uint64_t> digests(P, 0xCBF29CE484222325ull);

  experiment(cfg, ctx, rep, [&](Cluster& c, int rank) {
    mps::Node& node = c.node(rank);
    const TimePoint main_begin = c.engine().now();
    const int sender = node.t_create([&, rank] {
      for (std::uint32_t m = 0; m < kLanMsgs; ++m) {
        const TimePoint b = c.engine().now();
        const Bytes payload = make_payload(seed, rank, m, lan_size(seed, rank, m), b);
        node.send(0, 1, lan_dst(rank, m), payload);
        sim_span(ctx, "mps.send", rank * kTracksPerRank + 1, b, c.engine().now(),
                 msg_id(rank, m));
      }
    }, mts::kDefaultPriority, "sender");
    const int receiver = node.t_create([&, rank] {
      // Per-source FIFO: each peer's indices must arrive in increasing order.
      std::vector<std::int64_t> last(P, -1);
      for (std::uint32_t k = 0; k < kLanMsgs; ++k) {
        const TimePoint b = c.engine().now();
        int from = -1;
        const Bytes got = node.recv(mps::kAnyThread, mps::kAnyProcess, 1, nullptr, &from);
        const TimePoint e = c.engine().now();
        const Received h = header_of(got);
        sim_span(ctx, "mps.recv", rank * kTracksPerRank + 2, b, e, msg_id(h.src, h.idx));
        if (from < 0 || from >= P || h.src != from || lan_dst(from, h.idx) != rank ||
            static_cast<std::int64_t>(h.idx) <= last[static_cast<std::size_t>(from)]) {
          rep.fail("misrouted or out-of-order message at rank " + std::to_string(rank));
          continue;
        }
        last[static_cast<std::size_t>(from)] = h.idx;
        check_delivery(rep, digests[static_cast<std::size_t>(rank)], got, seed, from, h.idx,
                       lan_size(seed, from, h.idx), e);
      }
    }, mts::kDefaultPriority, "receiver");
    node.host().join(node.user_thread(sender));
    node.host().join(node.user_thread(receiver));
    sim_span(ctx, "app.main", rank * kTracksPerRank, main_begin, c.engine().now());
  });
  fold_digests(rep, digests);
}

// --- workload: wan_lossy_coll -----------------------------------------

constexpr int kLossyProcs = 8;
constexpr std::uint32_t kLossySteps = 10000;
constexpr std::uint32_t kBarrierEvery = 8;
constexpr std::size_t kExchangeBytes = 1024;
constexpr std::size_t kReduceLen = 128;

/// Integer-valued contributions below 2^11, so every sum is exact in any
/// fold order (host tree, NIC firmware, or the fallback refold).
double reduce_value(std::uint64_t seed, int rank, std::uint32_t step, std::size_t i) {
  const std::uint64_t h = mix(seed ^ 0xA11ull, (static_cast<std::uint64_t>(rank) << 32) | step);
  return static_cast<double>(((h >> (i % 48)) & 1023u) + i);
}

void wan_lossy_coll(const Ctx& ctx, Rep& rep) {
  constexpr int P = kLossyProcs;
  ClusterConfig cfg = nynet_wan(P);
  cfg.ncs.error = {.kind = mps::ErrorControlKind::retransmit,
                   .rto = Duration::milliseconds(20),
                   .max_retries = 1000};
  cfg.ncs.coll.nic_offload = true;
  // Fallback after the same 20 ms as a retransmission (about 3x the healthy
  // combine round trip): many short recovery episodes, so the makespan's
  // spread across loss seeds stays small.
  cfg.ncs.coll.offload_timeout_us = 20'000;
  // A seeded Gilbert-Elliott burst chain on the SONET hop for the whole run
  // (the restore event lies far beyond the last main, so sim_makespan_s is
  // run()'s return value, never the engine clock).
  cfg.faults.seed = mix(ctx.seed, 0xFA517);
  cfg.faults.link_burst("sonet", TimePoint::origin(), Duration::seconds(3600),
                        {.p_good_to_bad = 0.01, .p_bad_to_good = 0.9, .loss_good = 0.0,
                         .loss_bad = 0.2});
  const std::uint64_t seed = ctx.seed;
  rep.attempted += static_cast<std::uint64_t>(P) *
                   (2 * kLossySteps + kLossySteps / kBarrierEvery);
  std::vector<std::uint64_t> digests(P, 0xCBF29CE484222325ull);

  experiment(cfg, ctx, rep, [&](Cluster& c, int rank) {
    mps::Node& node = c.node(rank);
    const TimePoint main_begin = c.engine().now();
    const int t = node.t_create([&, rank] {
      const int right = (rank + 1) % P;
      const int left = (rank + P - 1) % P;
      const int track = rank * kTracksPerRank + 1;
      std::uint64_t& digest = digests[static_cast<std::size_t>(rank)];
      std::vector<double> mine(kReduceLen), want(kReduceLen);
      for (std::uint32_t step = 0; step < kLossySteps; ++step) {
        TimePoint b = c.engine().now();
        node.send(0, 0, right, make_payload(seed, rank, step, kExchangeBytes, b));
        sim_span(ctx, "mps.send", track, b, c.engine().now(), msg_id(rank, step));
        b = c.engine().now();
        const Bytes got = node.recv(mps::kAnyThread, left, 0);
        TimePoint e = c.engine().now();
        sim_span(ctx, "mps.recv", track, b, e, msg_id(left, step));
        check_delivery(rep, digest, got, seed, left, step, kExchangeBytes, e);

        std::fill(want.begin(), want.end(), 0.0);
        for (int r = 0; r < P; ++r)
          for (std::size_t i = 0; i < kReduceLen; ++i) {
            const double v = reduce_value(seed, r, step, i);
            want[i] += v;
            if (r == rank) mine[i] = v;
          }
        b = c.engine().now();
        const std::vector<double> sum = node.allreduce_sum(mine);
        e = c.engine().now();
        sim_span(ctx, "coll.allreduce", track, b, e, step + 1);
        if (sum != want) {
          rep.fail("allreduce mismatch at rank " + std::to_string(rank) + " step " +
                   std::to_string(step));
        } else {
          ++rep.completed;
          rep.lat_ps.push_back((e - b).ps());
          rep.allreduce_ps.push_back((e - b).ps());
          digest = fold(digest, sum.front() + sum.back());
        }

        if (step % kBarrierEvery == kBarrierEvery - 1) {
          b = c.engine().now();
          node.barrier();
          e = c.engine().now();
          sim_span(ctx, "coll.barrier", track, b, e, step + 1);
          ++rep.completed;
          rep.lat_ps.push_back((e - b).ps());
          rep.barrier_ps.push_back((e - b).ps());
        }
      }
    }, mts::kDefaultPriority, "stepper");
    node.host().join(node.user_thread(t));
    sim_span(ctx, "app.main", rank * kTracksPerRank, main_begin, c.engine().now());
  });
  fold_digests(rep, digests);
}

// --- workload: paper_apps ---------------------------------------------

/// Reads "engine_events" and the flat "metrics" object of a run report
/// (cluster/report.cpp writes them as "key":number without whitespace).
bool read_report(const std::string& path, Rep& rep, bool nsm) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  const std::size_t ev = doc.find("\"engine_events\":");
  std::size_t pos = doc.find("\"metrics\":{");
  if (ev == std::string::npos || pos == std::string::npos) return false;
  const auto events = std::strtoull(doc.c_str() + ev + 16, nullptr, 10);
  rep.events += events;
  rep.harvested = true;
  rep.metrics_fp = fold(rep.metrics_fp, static_cast<std::uint64_t>(events));
  pos += 11;
  while (pos < doc.size() && doc[pos] == '"') {
    const std::size_t close = doc.find('"', pos + 1);
    if (close == std::string::npos || doc[close + 1] != ':') return false;
    const std::string key = doc.substr(pos + 1, close - pos - 1);
    char* end = nullptr;
    const double value = std::strtod(doc.c_str() + close + 2, &end);
    add_metric(rep, key, value);
    if (nsm && key == "tcp/data_segments")
      rep.nsm_tcp_segments += static_cast<std::uint64_t>(value);
    pos = static_cast<std::size_t>(end - doc.c_str());
    if (pos < doc.size() && doc[pos] == ',') ++pos;
  }
  return true;
}

AppResult run_app(App app, bool ncs, const ClusterConfig& cfg, int nodes) {
  switch (app) {
    case App::matmul: return ncs ? run_matmul_ncs(cfg, nodes) : run_matmul_p4(cfg, nodes);
    case App::jpeg: return ncs ? run_jpeg_ncs(cfg, nodes) : run_jpeg_p4(cfg, nodes);
    case App::fft: return ncs ? run_fft_ncs(cfg, nodes) : run_fft_p4(cfg, nodes);
  }
  return {};
}

/// Builds and initialises the testbed a driver call builds for itself
/// (drivers.hpp: nodes+1 processes, one process for the one-node rows) so
/// its set-up cost can be timed from outside; the driver owns its cluster.
void time_testbed_setup(App app, bool ncs, ClusterConfig cfg, int nodes, const Ctx& ctx,
                        Rep& rep) {
  cfg.n_procs = nodes == 1 ? 1 : nodes + 1;
  const double rss0 = proc_status_mb("VmRSS:");
  const auto t0 = Clock::now();
  auto c = std::make_unique<Cluster>(cfg);
  const auto t1 = Clock::now();
  if (nodes > 1) {
    if (ncs) {
      c->init_ncs_nsm();
    } else {
      c->init_p4();
    }
  } else if (ncs && app == App::matmul) {
    c->init_ncs_nsm();  // the one-node NCS matmul spawns its system threads
  }
  const auto t2 = Clock::now();
  note_init_rss(rep, rss0, cfg.n_procs);
  const auto t3 = Clock::now();
  c.reset();
  const auto t4 = Clock::now();
  rep.build_s += secs(t0, t1);
  rep.init_s += secs(t1, t2);
  rep.teardown_s += secs(t3, t4);
  host_span(ctx, "cluster.build", t0, t1);
  host_span(ctx, "cluster.init", t1, t2);
  host_span(ctx, "cluster.teardown", t3, t4);
}

void paper_apps(const Ctx& ctx, Rep& rep) {
  std::uint64_t index = 0;
  for (const PaperRow& row : kPaperRows) {
    for (const bool ncs : {false, true}) {
      ++index;
      ClusterConfig cfg = row.ethernet ? sun_ethernet(0) : sun_atm_lan(0);
      cfg.bus.seed = mix(ctx.seed, index);  // Ethernet contention draws
      cfg.profile = ctx.traced;
      time_testbed_setup(row.app, ncs, cfg, row.nodes, ctx, rep);

      cfg.report_path = ctx.out_dir + "/paper_apps_run.json";
      const auto t0 = Clock::now();
      const AppResult r = run_app(row.app, ncs, cfg, row.nodes);
      const auto t1 = Clock::now();
      rep.run_s += secs(t0, t1);
      rep.wall_s += secs(t0, t1);
      host_span(ctx, "apps.driver", t0, t1);

      ++rep.attempted;
      const std::string tag = std::string(app_name(row.app)) + (row.ethernet ? "/eth/" : "/atm/") +
                              std::to_string(row.nodes) + (ncs ? "/ncs" : "/p4");
      if (ctx.harvest_metrics && !read_report(cfg.report_path, rep, ncs))
        rep.fail(tag + ": unreadable run report");
      rep.exceptions += r.exceptions;
      if (!r.correct) {
        rep.fail(tag + ": application result incorrect");
        continue;
      }
      ++rep.completed;
      rep.makespan_ps += r.elapsed.ps();
      rep.proc_seconds += (row.nodes == 1 ? 1 : row.nodes + 1) * r.elapsed.sec();
      rep.lat_ps.push_back(r.elapsed.ps());
      rep.run_fp = fold(rep.run_fp, static_cast<std::uint64_t>(r.elapsed.ps()));
      rep.output_digest = fold(rep.output_digest, r.result_hash);
      rep.app_runs.push_back({&row, ncs, r.elapsed.sec()});
    }
  }
}

/// Mean absolute error (%) of the simulated times against the paper's,
/// over the p4 and NCS columns of one app on one testbed.
double paper_err_pct(const Rep& rep, App app, bool ethernet) {
  double sum = 0;
  int n = 0;
  for (const Rep::AppRun& r : rep.app_runs) {
    if (r.row->app != app || r.row->ethernet != ethernet) continue;
    const double paper = r.ncs ? r.row->ncs_s : r.row->p4_s;
    sum += std::abs(r.elapsed_s - paper) / paper * 100.0;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

// --- metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// NcsExceptions + EC give-ups + ops that did not complete with verified
/// output (a failed check on an op that did complete still counts).
std::uint64_t failures(const Rep& rep) {
  const std::uint64_t unverified =
      std::max(rep.attempted - std::min(rep.attempted, rep.completed), rep.verify_failures);
  return rep.exceptions + static_cast<std::uint64_t>(rep.agg_value("mps/ec/give_ups")) +
         unverified;
}

std::uint64_t sim_fingerprint(const Rep& rep) {
  return fold(fold(rep.run_fp, rep.output_digest), rep.metrics_fp);
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, double peak_rss_mb) {
  std::vector<double> setup, wall, rate;
  for (const Rep& r : reps) {
    setup.push_back(r.build_s + r.init_s);
    wall.push_back(r.wall_s);
    rate.push_back(static_cast<double>(r.completed) / r.run_s);
  }
  std::vector<std::int64_t> lat = reps.front().lat_ps;
  std::sort(lat.begin(), lat.end());
  return {
      {"setup_s", "s", median(setup)},
      {"wall_s", "s", median(wall)},
      {"host_ops_per_s", "ops/s", median(rate)},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"sim_makespan_s", "sim_s", static_cast<double>(reps.front().makespan_ps) * 1e-12},
      {"sim_lat_p50_us", "sim_us", ps_to_us(quantile(lat, 0.50))},
      {"sim_lat_p99_us", "sim_us", ps_to_us(quantile(lat, 0.99))},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& untraced, const Rep& t,
                              double trace_overhead) {
  std::vector<double> build, init, teardown, ns_per_event;
  for (const Rep& r : untraced) {
    build.push_back(r.build_s);
    init.push_back(r.init_s);
    teardown.push_back(r.teardown_s);
    if (r.events > 0) ns_per_event.push_back(r.run_s * 1e9 / static_cast<double>(r.events));
  }
  const Rep& first = untraced.front();
  const double pairs = static_cast<double>(first.init_rss_procs) *
                       static_cast<double>(std::max(0, first.init_rss_procs - 1));
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto a = [&t](const char* k) { return t.agg_value(k); };
  const double ops = static_cast<double>(t.completed);
  const double msgs = a("mps/sends");
  const auto leg = [&t](obs::Layer l, double q) {
    return t.legs.empty() ? 0.0 : ps_to_us(t.legs[static_cast<std::size_t>(l)].quantile(q));
  };
  std::vector<std::int64_t> ar = t.allreduce_ps, br = t.barrier_ps;
  std::sort(ar.begin(), ar.end());
  std::sort(br.begin(), br.end());

  std::vector<Metric> m = {
      {"cluster.build_s", "s", median(build)},
      {"cluster.init_s", "s", median(init)},
      {"cluster.teardown_s", "s", median(teardown)},
      {"cluster.init_rss_mb", "MB", first.init_rss_mb},
      {"cluster.init_bytes_per_pair", "B", per(first.init_rss_mb * 1024 * 1024, pairs)},
      {"sim.events", "count", static_cast<double>(t.events)},
      {"sim.events_per_op", "ratio", per(static_cast<double>(t.events), ops)},
      {"sim.host_ns_per_event", "ns", median(ns_per_event)},
      {"mts.threads", "count", a("mts/spawns")},
      {"mts.dispatches_per_op", "ratio", per(a("mts/dispatches"), ops)},
      {"mts.overhead_s", "sim_s", a("mts/overhead")},
      {"mts.cpu_busy_frac", "ratio", per(a("mts/cpu_busy"), t.proc_seconds)},
      {"mps.acks_per_msg", "ratio", per(a("mps/acks_sent"), msgs)},
      {"mps.flow.window_stalls", "count", a("mps/flow/window_stalls")},
      {"mps.flow.time_blocked_s", "sim_s", a("mps/flow/time_blocked")},
      {"mps.proto.msgs_per_eager_frame", "ratio",
       per(a("mps/proto/eager_msgs"), a("mps/proto/eager_frames"))},
      {"mps.proto.rndv_transfers", "count", a("mps/proto/rndv_transfers")},
      {"mps.proto.rts_resends", "count", a("mps/proto/rts_resends")},
  };
  const std::pair<const char*, obs::Layer> legs[] = {
      {"send_queue", obs::Layer::send_queue}, {"flow_control", obs::Layer::flow_control},
      {"transport", obs::Layer::transport},   {"network", obs::Layer::network},
      {"mailbox", obs::Layer::mailbox}};
  for (const auto& [name, layer] : legs) {
    m.push_back({std::string("mps.") + name + "_p50_us", "sim_us", leg(layer, 0.50)});
    m.push_back({std::string("mps.") + name + "_p99_us", "sim_us", leg(layer, 0.99)});
  }
  const std::vector<Metric> rest = {
      {"mps.ec.retransmits", "count", a("mps/ec/retransmits")},
      {"mps.ec.retx_per_msg", "ratio", per(a("mps/ec/retransmits"), msgs)},
      {"mps.ec.duplicates_dropped", "count", a("mps/ec/duplicates_dropped")},
      {"mps.ec.give_ups", "count", a("mps/ec/give_ups")},
      {"atm.nic.tx_chunks_per_msg", "ratio", per(a("nic/tx_chunks"), msgs)},
      {"atm.nic.tx_cells_per_msg", "ratio", per(a("nic/tx_cells"), msgs)},
      {"atm.nic.rx_errors", "count", a("nic/rx_errors")},
      {"atm.switch.port_drops", "count", a("switch/port_drops")},
      {"atm.nic_dma_p99_us", "sim_us", leg(obs::Layer::nic_dma, 0.99)},
      {"atm.nic_sar_p99_us", "sim_us", leg(obs::Layer::nic_sar, 0.99)},
      {"atm.tx_buffer_stall_p99_us", "sim_us", leg(obs::Layer::tx_buffer_stall, 0.99)},
      {"net.wire_p99_us", "sim_us", leg(obs::Layer::wire, 0.99)},
      {"proto.tcp.segments_per_msg", "ratio", per(static_cast<double>(t.nsm_tcp_segments), msgs)},
      {"proto.tcp.retransmits", "count", a("tcp/retransmits")},
      {"ether.frames", "count", a("ether/frames")},
      {"ether.contention_events", "count", a("ether/contention_events")},
      {"coll.allreduce_p50_us", "sim_us", ps_to_us(quantile(ar, 0.50))},
      {"coll.allreduce_p99_us", "sim_us", ps_to_us(quantile(ar, 0.99))},
      {"coll.barrier_p99_us", "sim_us", ps_to_us(quantile(br, 0.99))},
      {"nic_coll.fallbacks", "count", a("nic_coll/fallbacks")},
      {"nic_coll.rearms", "count", a("nic_coll/rearms")},
      {"fault.transitions_fired", "count", a("fault/transitions_fired")},
      {"obs.trace_overhead", "ratio", trace_overhead},
      {"obs.metrics_s", "s", first.metrics_s},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const App app : {App::matmul, App::jpeg, App::fft})
    for (const bool eth : {true, false})
      m.push_back({std::string("apps.") + app_name(app) + (eth ? "_eth" : "_atm") + "_err_pct",
                   "%", paper_err_pct(t, app, eth)});
  return m;
}

// --- span summary ------------------------------------------------------

/// Per span name: count, total time and self time (duration minus the part
/// covered by child spans). Children of a rank's app.main are that rank's
/// call spans; children of the host "experiment" span are its phases.
void print_self_times(const std::vector<Span>& spans) {
  struct Acc {
    std::uint64_t n = 0;
    double total = 0, self = 0;
    bool host = false;
  };
  std::map<std::string, Acc> acc;
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;  // rank -> calls
  std::vector<std::pair<std::int64_t, std::int64_t>> host_children;
  for (const Span& s : spans) {
    if (s.host) {
      if (std::strcmp(s.name, "experiment") != 0) host_children.emplace_back(s.begin, s.end);
    } else if (s.track % kTracksPerRank != 0) {
      children[s.track / kTracksPerRank].emplace_back(s.begin, s.end);
    }
  }
  const auto covered = [](std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t b,
                          std::int64_t e) {
    std::sort(iv.begin(), iv.end());
    std::int64_t sum = 0, cur_b = 0, cur_e = -1;
    for (auto [x, y] : iv) {
      x = std::max(x, b);
      y = std::min(y, e);
      if (y <= x) continue;
      if (x > cur_e) {
        if (cur_e > cur_b) sum += cur_e - cur_b;
        cur_b = x;
        cur_e = y;
      } else {
        cur_e = std::max(cur_e, y);
      }
    }
    if (cur_e > cur_b) sum += cur_e - cur_b;
    return sum;
  };
  for (const Span& s : spans) {
    Acc& x = acc[s.name];
    const double scale = s.host ? 1e-9 : 1e-12;
    const std::int64_t dur = s.end - s.begin;
    std::int64_t self = dur;
    if (s.host && std::strcmp(s.name, "experiment") == 0) {
      self -= covered(host_children, s.begin, s.end);
    } else if (!s.host && s.track % kTracksPerRank == 0) {
      self -= covered(children[s.track / kTracksPerRank], s.begin, s.end);
    }
    ++x.n;
    x.total += static_cast<double>(dur) * scale;
    x.self += static_cast<double>(self) * scale;
    x.host = s.host;
  }
  std::printf("span self time (last traced repetition):\n");
  std::printf("  %-18s %-5s %9s %14s %14s\n", "span", "clock", "count", "total_s", "self_s");
  for (const auto& [name, x] : acc)
    std::printf("  %-18s %-5s %9llu %14.6f %14.6f\n", name.c_str(), x.host ? "host" : "sim",
                static_cast<unsigned long long>(x.n), x.total, x.self);
}

/// Chrome Trace Event JSON: pid 1 = simulated clock (tid = rank track),
/// pid 2 = host clock. Loads in ui.perfetto.dev.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const Span& s : spans) {
    const double us = s.host ? 1e-3 : 1e-6;
    w.begin_object();
    w.field("name", s.name);
    w.field("ph", "X");
    w.field("pid", s.host ? 2 : 1);
    w.field("tid", s.track);
    w.field("ts", static_cast<double>(s.begin) * us);
    w.field("dur", static_cast<double>(s.end - s.begin) * us);
    w.key("args").begin_object().field("id", s.id).end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream f(path);
  f << std::move(w).str() << '\n';
  return static_cast<bool>(f);
}

// --- driver ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1995;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

using Workload = void (*)(const Ctx&, Rep&);

Workload find_workload(const std::string& name) {
  if (name == "wan_ring_p1024") return wan_ring;
  if (name == "lan_p2p_mix") return lan_p2p_mix;
  if (name == "paper_apps") return paper_apps;
  if (name == "wan_lossy_coll") return wan_lossy_coll;
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ncs_perfbench: %s\nusage: ncs_perfbench --workload "
               "wan_ring_p1024|lan_p2p_mix|paper_apps|wan_lossy_coll [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR]\n",
               why);
  return 2;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--out") {
      args.out_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload workload = find_workload(args.workload);
  if (workload == nullptr) return usage("unknown or missing --workload");

  // Repetitions of the same seeded experiment until the host-time budget
  // is spent. Untraced runs make at least two, so the simulated fingerprint
  // is checked back to back; traced runs alternate untraced and traced.
  std::vector<Rep> untraced, traced;
  std::vector<Span> spans;
  double peak_rss_mb = 0;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    Ctx ctx{args.seed, trace_this, i == 0 || trace_this, nullptr, args.out_dir};
    if (trace_this) {
      spans.clear();
      ctx.spans = &spans;
    }
    Rep rep;
    workload(ctx, rep);
    std::printf("rep %d%s: wall %.4f s, setup %.4f s, run %.4f s, %llu ops\n", i,
                trace_this ? " (traced)" : "", rep.wall_s, rep.build_s + rep.init_s, rep.run_s,
                static_cast<unsigned long long>(rep.completed));
    rep.failed = failures(rep);
    std::vector<Rep>& set = trace_this ? traced : untraced;
    if (trace_this && !set.empty()) set.back().compact();
    if (!trace_this && !set.empty()) rep.compact();
    set.push_back(std::move(rep));
    // Peak RSS of the workload: the high-water mark once the first two
    // untraced repetitions (cold, then warm) have run. Later repetitions
    // would add allocator drift that depends on how many fit in the budget.
    if (!trace_this && untraced.size() == 2) peak_rss_mb = proc_status_mb("VmHWM:");
    const bool enough = untraced.size() >= 2 && (!args.trace || !traced.empty());
    if (enough && secs(start, Clock::now()) >= args.seconds) break;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::string why;
  bool same_fingerprint = true;
  const Rep& first = untraced.front();
  for (const std::vector<Rep>* set : {&untraced, &traced})
    for (const Rep& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      if (!r.first_failure.empty() && why.empty()) why = r.first_failure;
      // Repetitions are back-to-back runs of one seeded experiment, and
      // tracing must not perturb the simulation: each one reproduces the
      // first one's makespans and outputs, and its counts when harvested.
      same_fingerprint = same_fingerprint && r.run_fp == first.run_fp &&
                         r.output_digest == first.output_digest &&
                         (!r.harvested || r.metrics_fp == first.metrics_fp);
    }
  bool correct = why.empty() && same_fingerprint && failed == 0;

  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions in %.2f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), secs(start, Clock::now()));
  std::printf("sim fingerprint %016llx (identical across all repetitions: %s)\n",
              static_cast<unsigned long long>(sim_fingerprint(first)),
              same_fingerprint ? "yes" : "NO");
  std::vector<std::int64_t> lat = first.lat_ps;
  std::sort(lat.begin(), lat.end());
  const std::int64_t p99 = quantile(lat, 0.99);
  const auto beyond =
      static_cast<std::size_t>(lat.end() - std::upper_bound(lat.begin(), lat.end(), p99));
  std::printf("sim latency samples %zu, %zu beyond p99%s\n", lat.size(), beyond,
              beyond < 10 ? " (fewer than 10: p99 is not backed by the tail)" : "");
  std::printf("failed_frac %.6f (%llu of %llu ops)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  if (!why.empty()) std::printf("verification FAILED: %s\n", why.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(untraced, peak_rss_mb);
    if (!first.app_runs.empty()) {
      std::printf("paper reference (unvalidated model; simulated vs the paper's Tables 1-3):\n");
      for (const App app : {App::matmul, App::jpeg, App::fft})
        for (const bool eth : {true, false})
          std::printf("  %-7s %-4s mean |error| %6.1f%%\n", app_name(app), eth ? "eth" : "atm",
                      paper_err_pct(first, app, eth));
    }
  } else {
    std::vector<double> tw, uw;
    for (const Rep& r : traced) tw.push_back(r.wall_s);
    for (const Rep& r : untraced) uw.push_back(r.wall_s);
    metrics = per_layer(untraced, traced.back(), median(tw) / median(uw));
    print_self_times(spans);
    const std::string path = args.out_dir + "/" + args.workload + "_spans.json";
    if (!write_spans(path, spans)) {
      std::printf("cannot write %s\n", path.c_str());
      correct = false;
    } else {
      std::printf("spans written to %s (%zu spans)\n", path.c_str(), spans.size());
    }
  }
  print_metrics(metrics);

  obs::JsonWriter w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  return 0;
}
