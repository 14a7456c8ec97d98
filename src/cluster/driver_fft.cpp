#include "apps/fft.hpp"
#include "cluster/compute.hpp"
#include "cluster/harness.hpp"
#include "common/assert.hpp"

namespace ncs::cluster {

namespace {

using apps::fft::assemble;
using apps::fft::Complex;
using apps::fft::fft;
using apps::fft::global_stage;
using apps::fft::keeps_sum_half;
using apps::fft::local_phase;
using apps::fft::log2_exact;
using apps::fft::make_samples;
using apps::fft::pack;
using apps::fft::unpack;

constexpr int kTypeA = 30;
constexpr int kTypeB = 31;
constexpr int kTypeExchange = 32;
constexpr int kTypeResult = 33;

/// The compute/communicate body shared by every variant: runs the paper's
/// Fig 21 algorithm for one global thread, charging its butterflies to
/// `host`. `exchange` sends `out` to the partner thread and returns its
/// counterpart.
template <typename ExchangeFn>
std::vector<Complex> fft_thread_body(std::vector<Complex> a, std::vector<Complex> b,
                                     int thread_num, std::size_t m, std::size_t n_threads,
                                     mts::Scheduler& host, ExchangeFn&& exchange) {
  const auto charge = [&host](std::size_t butterflies) {
    charge_compute(host, static_cast<double>(butterflies) *
                             calibration().fft_cycles_per_butterfly);
  };
  const std::size_t r = m / (2 * n_threads);
  std::vector<Complex> x(r), y(r);
  const int global_steps = log2_exact(n_threads);

  for (int step = 0; step < global_steps; ++step) {
    charge(r);
    global_stage(a, b, x, y, thread_num, step, m, n_threads);
    const int d = static_cast<int>(n_threads) >> (step + 1);
    if (keeps_sum_half(thread_num, d)) {
      // Upper half: keep the sums, ship the twiddled differences down.
      b = exchange(thread_num + d, pack(y));
      a = x;
    } else {
      a = exchange(thread_num - d, pack(x));
      b = y;
    }
  }

  // Local sub-FFT of the 2R points this thread now owns.
  std::vector<Complex> local(2 * r);
  std::copy(a.begin(), a.end(), local.begin());
  std::copy(b.begin(), b.end(), local.begin() + static_cast<std::ptrdiff_t>(r));
  charge(r * static_cast<std::size_t>(log2_exact(2 * r)));
  local_phase(local, m);
  return local;
}

/// The calibrated sample sets, their distributed spectra and the check
/// against a whole-array FFT.
struct Fft {
  const std::size_t m = calibration().fft_m;
  const int sets = calibration().fft_sample_sets;
  std::vector<std::vector<Complex>> results =
      std::vector<std::vector<Complex>>(static_cast<std::size_t>(sets));

  std::vector<Complex> samples(int set) const {
    return make_samples(m, static_cast<std::uint64_t>(set));
  }

  AppResult finish(AppResult r) const {
    r.correct = true;
    for (int s = 0; s < sets; ++s) {
      const std::vector<Complex>& set = results[static_cast<std::size_t>(s)];
      r.correct = r.correct &&
                  apps::fft::approx_equal(set, fft(samples(s)), 1e-6 * static_cast<double>(m));
      r.result_hash = fnv1a(set.data(), set.size() * sizeof(Complex), r.result_hash);
    }
    return r;
  }
};

/// One-node rows (paper Table 3): a single workstation, no host/node
/// traffic. `threads` > 1 splits the butterfly work across NCS threads
/// with a local barrier per set — pure thread-maintenance overhead, which
/// is why the paper's 1-node NCS times trail p4's slightly.
AppResult fft_one_node(ClusterConfig base, int threads) {
  Fft f;
  const auto butterflies = static_cast<double>(f.m / 2 * static_cast<std::size_t>(log2_exact(f.m)));
  const double cycles_per_set = butterflies * calibration().fft_cycles_per_butterfly;
  return f.finish(run_hosted(std::move(base), 1, Stack::one_node, [&](Comm& comm) {
    mts::Barrier barrier(comm.host(), threads);
    comm.workers(threads, "fft", mts::kDefaultPriority, [&](int t) {
      for (int set = 0; set < f.sets; ++set) {
        charge_compute(comm.host(), cycles_per_set / threads);
        barrier.arrive_and_wait();
        if (t == 0) f.results[static_cast<std::size_t>(set)] = fft(f.samples(set));
      }
    });
  }));
}

/// Paper Figs 19 (p4, tpn = 1) and 20/21 (NCS): global thread g lives on
/// process g/tpn + 1 as its local thread g%tpn. The host process has a
/// single thread in both programs (paper Section 5.3.2): its main thread
/// distributes and collects.
AppResult fft_hosted(ClusterConfig base, int nodes, Stack stack, int tpn) {
  Fft f;
  const std::size_t m = f.m;
  const auto n_threads = static_cast<std::size_t>(nodes * tpn);
  NCS_ASSERT(nodes >= 1 && m % (2 * n_threads) == 0);
  if (nodes == 1) return fft_one_node(std::move(base), tpn);
  const std::size_t r = m / (2 * n_threads);
  const auto proc_of = [tpn](int g) { return g / tpn + 1; };
  const auto local_of = [tpn](int g) { return g % tpn; };

  return f.finish(run_hosted(std::move(base), nodes, stack, [&](Comm& comm) {
    const int rank = comm.rank();
    if (rank == 0) {
      for (int set = 0; set < f.sets; ++set) {
        const auto samples = f.samples(set);
        for (std::size_t g = 0; g < n_threads; ++g) {
          const int gi = static_cast<int>(g);
          comm.send(0, {kTypeA, local_of(gi), proc_of(gi)}, pack({samples.data() + g * r, r}));
          comm.send(0, {kTypeB, local_of(gi), proc_of(gi)},
                    pack({samples.data() + g * r + m / 2, r}));
        }
        std::vector<Complex> concatenated(m);
        for (std::size_t g = 0; g < n_threads; ++g) {
          const int gi = static_cast<int>(g);
          const auto block = unpack(comm.recv({kTypeResult, local_of(gi), proc_of(gi)}, 0));
          std::copy(block.begin(), block.end(),
                    concatenated.begin() + static_cast<std::ptrdiff_t>(g * 2 * r));
        }
        f.results[static_cast<std::size_t>(set)] = assemble(concatenated);
      }
      return;
    }
    comm.workers(tpn, "fft", mts::kDefaultPriority, [&](int t) {
      const int thread_num = (rank - 1) * tpn + t;  // paper: 2*my_num + tid
      const auto exchange = [&](int partner, Bytes out) {
        const Addr peer{kTypeExchange, local_of(partner), proc_of(partner)};
        comm.send(t, peer, out);
        return unpack(comm.recv(peer, t));
      };
      for (int set = 0; set < f.sets; ++set) {
        auto a = unpack(comm.recv({kTypeA, 0, 0}, t));
        auto b = unpack(comm.recv({kTypeB, 0, 0}, t));
        const auto local = fft_thread_body(std::move(a), std::move(b), thread_num, m,
                                           n_threads, comm.host(), exchange);
        comm.send(t, {kTypeResult, 0, 0}, pack(local));
      }
    });
  }));
}

}  // namespace

AppResult run_fft_p4(ClusterConfig base, int nodes) {
  return fft_hosted(std::move(base), nodes, Stack::p4, 1);
}

AppResult run_fft_ncs(ClusterConfig base, int nodes, NcsTier tier) {
  return fft_hosted(std::move(base), nodes, ncs_stack(tier), 2);  // paper Fig 20
}

AppResult run_fft_coll(ClusterConfig base, int nodes, NcsTier tier) {
  Fft f;
  const std::size_t m = f.m;
  const auto n_threads = static_cast<std::size_t>(nodes);  // one global thread per process
  NCS_ASSERT(nodes >= 1 && (nodes & (nodes - 1)) == 0 && m % (2 * n_threads) == 0);
  const std::size_t r = m / (2 * n_threads);

  return f.finish(run_spmd(std::move(base), nodes, tier, [&](Comm& comm) {
    mps::Node& node = comm.node();
    const int rank = comm.rank();
    const auto exchange = [&](int partner, Bytes out) {
      node.send(0, 0, partner, out);
      return unpack(node.recv(0, partner, 0));
    };

    for (int set = 0; set < f.sets; ++set) {
      // Rank 0 owns the samples; the two input halves reach their threads
      // as scatters. The butterfly exchanges stay point-to-point (they are
      // pairwise, not group traffic), and the spectrum converges by gather.
      std::vector<Bytes> a_slices, b_slices;
      if (rank == 0) {
        const auto samples = f.samples(set);
        for (std::size_t g = 0; g < n_threads; ++g) {
          a_slices.push_back(pack({samples.data() + g * r, r}));
          b_slices.push_back(pack({samples.data() + g * r + m / 2, r}));
        }
      }
      auto a = unpack(node.scatter(0, a_slices));
      auto b = unpack(node.scatter(0, b_slices));

      const auto local = fft_thread_body(std::move(a), std::move(b), rank, m, n_threads,
                                         comm.host(), exchange);

      const auto gathered = node.gather(0, pack(local));
      if (rank == 0) {
        std::vector<Complex> concatenated(m);
        for (std::size_t g = 0; g < n_threads; ++g) {
          const auto block = unpack(gathered[g]);
          std::copy(block.begin(), block.end(),
                    concatenated.begin() + static_cast<std::ptrdiff_t>(g * 2 * r));
        }
        f.results[static_cast<std::size_t>(set)] = assemble(concatenated);
      }
    }
  }));
}

}  // namespace ncs::cluster
