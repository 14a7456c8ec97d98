// Distributed application drivers — the paper's Section 5 experiments.
//
// Each application exists in three variants:
//   *_p4   : plain p4, one thread per process (the paper's baseline,
//            Figs 13, 19).
//   *_ncs  : NCS_MTS/p4 with `threads_per_node` compute threads per node
//            process (the paper's multithreaded versions, Figs 14, 17/18,
//            20/21). The host is rank 0 in both.
//   *_coll : SPMD over the collective API (see below).
//
// The p4 and NCS variants of an app are one body run over a small
// communicator (harness.hpp): p4 is that body with one thread per process.
// Where the paper's two programs differ, the body says so in one place.
// The one-node rows are a single workstation with no message traffic.
//
// Every run performs the real computation on real data and verifies the
// distributed result against a sequential reference — the verification
// happens outside simulated time and is reported in AppResult::correct.
//
// Pass a preset from config.hpp (sun_ethernet / sun_atm_lan / nynet_wan);
// the driver overrides n_procs: nodes+1 (host + node processes), 1 for
// the one-node rows, `nodes` for *_coll.
#pragma once

#include "cluster/cluster.hpp"
#include "cluster/report.hpp"

namespace ncs::cluster {

struct AppResult {
  Duration elapsed;
  bool correct = false;
  /// FNV-1a digest of the application's distributed output — equal digests
  /// mean bit-identical results (chaos runs vs fault-free, repeat vs
  /// repeat).
  std::uint64_t result_hash = 0;
  /// NcsExceptions raised into application threads (0 = clean run or every
  /// fault fully recovered by error control).
  std::uint64_t exceptions = 0;
  /// Error-control retransmissions summed over all nodes.
  std::uint64_t retransmits = 0;
  /// bottleneck_report() of a profiled run (ClusterConfig::profile set);
  /// empty otherwise. The cluster dies with the driver, so the rendered
  /// table is the profile's survivor.
  std::string bottleneck;

  // Telemetry summary (ClusterConfig::telemetry runs; zero otherwise).
  // Quantiles are over the run-total end-to-end / RMA sketches — like the
  // bottleneck table, these survive the cluster so benches can report and
  // gate on tail latency.
  bool telemetry = false;
  std::uint64_t telemetry_ticks = 0;
  double e2e_p99_us = 0.0;
  double e2e_p999_us = 0.0;
  double rma_p99_us = 0.0;
  double rma_p999_us = 0.0;
  /// Worst (minimum) run-level SLO compliance across all objectives, 1.0
  /// when every window complied; worst burn rate seen in any window.
  double slo_min_compliance = 1.0;
  double slo_max_burn = 0.0;
  std::uint64_t slo_hard_breaches = 0;
  std::uint64_t recorder_triggers = 0;
  std::uint64_t recorder_dumps = 0;

  /// Per-core scheduler counters, one entry per (process, core). Always
  /// filled (cores=1 runs produce one row per process) so benches can emit
  /// stable per-core columns regardless of the smp configuration.
  struct CoreUsage {
    int proc = 0;
    int core = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t steals_in = 0;
    std::uint64_t steals_out = 0;
    std::uint64_t migrations_in = 0;
    Duration cpu_busy;
  };
  std::vector<CoreUsage> cores;
  /// Sum of steals_in over all processes and cores (0 at cores=1).
  std::uint64_t steals = 0;
};

/// FNV-1a over raw bytes; pass a previous digest as `h` to chain buffers.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xCBF29CE484222325ull);

/// Which NCS tier the *_ncs drivers bind (the paper evaluates NSM).
enum class NcsTier { nsm_p4, hsm_atm };

// --- Matrix multiplication (Table 1; Figs 13/14) ---
AppResult run_matmul_p4(ClusterConfig base, int nodes);
AppResult run_matmul_ncs(ClusterConfig base, int nodes, NcsTier tier = NcsTier::nsm_p4,
                         int threads_per_node = 2);

// --- JPEG compression/decompression pipeline (Table 2; Figs 17/18) ---
// `nodes` must be even: the first half compresses, the second half
// decompresses.
AppResult run_jpeg_p4(ClusterConfig base, int nodes);
AppResult run_jpeg_ncs(ClusterConfig base, int nodes, NcsTier tier = NcsTier::nsm_p4);

// --- Distributed DIF FFT (Table 3; Figs 19-21) ---
AppResult run_fft_p4(ClusterConfig base, int nodes);
AppResult run_fft_ncs(ClusterConfig base, int nodes, NcsTier tier = NcsTier::nsm_p4);

// --- Collective-API variants (src/coll) ---
// SPMD over `nodes` processes — no separate host rank: rank 0 owns the
// input and result, distribution is scatter/bcast, collection is gather,
// and the algorithm behind each call (flat, binomial tree, dissemination,
// recursive doubling, pipelined ring) is autoselected per call by
// coll::select from the group and payload size (ClusterConfig::ncs.coll
// overrides). Default tier is HSM/ATM — the group plane the collectives
// target. `nodes` may be 1 (every collective degenerates to the identity).
AppResult run_matmul_coll(ClusterConfig base, int nodes, NcsTier tier = NcsTier::hsm_atm);
// jpeg_coll additionally allreduces the per-strip round-trip squared error
// so every rank holds the global PSNR (many-to-many reduction in anger).
AppResult run_jpeg_coll(ClusterConfig base, int nodes, NcsTier tier = NcsTier::hsm_atm);
// fft_coll needs power-of-two `nodes` (one global FFT thread per process;
// at 1 node the whole transform is the local phase).
AppResult run_fft_coll(ClusterConfig base, int nodes, NcsTier tier = NcsTier::hsm_atm);

}  // namespace ncs::cluster
