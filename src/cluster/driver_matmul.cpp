#include <cstring>

#include "apps/matmul.hpp"
#include "cluster/compute.hpp"
#include "cluster/harness.hpp"
#include "common/assert.hpp"

namespace ncs::cluster {

namespace {

using apps::matmul::make_matrix;
using apps::matmul::Matrix;
using apps::matmul::multiply;
using apps::matmul::multiply_rows;
using apps::matmul::op_count;
using apps::matmul::pack_rows;
using apps::matmul::unpack_rows;

constexpr int kTypeB = 10;
constexpr int kTypeA = 11;
constexpr int kTypeC = 12;

/// C = A x B on the calibrated n x n inputs, with its verification.
struct Matmul {
  const int n = calibration().matmul_n;
  const Matrix a = make_matrix(n, 1);
  const Matrix b = make_matrix(n, 2);
  Matrix c = Matrix(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);

  /// Row block `block` of `rows` rows.
  const double* a_rows(int block, int rows) const {
    return a.data() + static_cast<std::ptrdiff_t>(block) * rows * n;
  }
  double* c_rows(int block, int rows) {
    return c.data() + static_cast<std::ptrdiff_t>(block) * rows * n;
  }
  void store(int block, const std::vector<double>& rows_data, int rows) {
    std::memcpy(c_rows(block, rows), rows_data.data(), rows_data.size() * sizeof(double));
  }
  void charge(mts::Scheduler& host, int rows) const {
    charge_compute(host, op_count(rows, n) * calibration().matmul_cycles_per_op);
  }

  AppResult finish(AppResult r) const {
    r.correct = apps::matmul::approx_equal(c, multiply(a, b, n), 1e-9);
    r.result_hash = fnv1a(c.data(), c.size() * sizeof(double));
    return r;
  }
};

/// The paper's one-node rows are a single workstation running the whole
/// problem (both tables show p4 ~= NCS there, i.e. no host/node message
/// traffic): sequential compute, plus thread-maintenance overhead in the
/// NCS variant.
AppResult matmul_one_node(ClusterConfig base, int threads) {
  Matmul m;
  const int rows = m.n / threads;
  const Stack stack = threads > 1 ? Stack::one_node_nsm : Stack::one_node;
  return m.finish(run_hosted(std::move(base), 1, stack, [&](Comm& comm) {
    comm.workers(threads, "compute", mts::kDefaultPriority, [&](int t) {
      m.charge(comm.host(), rows);
      multiply_rows(m.a_rows(t, rows), m.b.data(), m.c_rows(t, rows), m.n, 0, rows);
    });
  }));
}

/// Paper Figs 13 (p4, tpn = 1) and 14 (NCS): host worker t drives worker
/// t of every node and owns the matching slices of C.
AppResult matmul(ClusterConfig base, int nodes, Stack stack, int tpn) {
  const int n = calibration().matmul_n;
  NCS_ASSERT(nodes >= 1 && tpn >= 1 && n % (nodes * tpn) == 0);
  if (nodes == 1) return matmul_one_node(std::move(base), tpn);
  Matmul m;
  const int rpt = n / (nodes * tpn);  // rows per thread
  // Fig 13 sends B and then A to one node at a time. Fig 14 sends every B
  // first, from worker 0 one priority level above its siblings (the
  // multi-level priority scheduler is an NCS feature, Fig 9), so no B
  // queues behind an A slice: every node thread depends on it.
  const bool b_first = stack != Stack::p4;

  return m.finish(run_hosted(std::move(base), nodes, stack, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const int lead = b_first ? mts::kDefaultPriority - 1 : mts::kDefaultPriority;
      comm.workers(tpn, "host-t", lead, [&](int t) {
        const auto send_b = [&](int i) {
          comm.send(t, {kTypeB, 0, i}, pack_rows(m.b.data(), n, n));
        };
        if (b_first && t == 0)
          for (int i = 1; i <= nodes; ++i) send_b(i);
        for (int i = 1; i <= nodes; ++i) {
          if (!b_first) send_b(i);
          comm.send(t, {kTypeA, t, i}, pack_rows(m.a_rows((i - 1) * tpn + t, rpt), rpt, n));
        }
        for (int i = 1; i <= nodes; ++i)
          m.store((i - 1) * tpn + t, unpack_rows(comm.recv({kTypeC, t, i}, t)), rpt);
      });
      return;
    }
    // Node process: worker 0 receives B into process-shared storage and
    // unblocks its siblings (shared address space, paper Section 5.1).
    std::vector<double> b_local;
    mts::Event b_ready(comm.host());
    comm.workers(tpn, "compute", mts::kDefaultPriority, [&](int t) {
      if (t == 0) {
        b_local = unpack_rows(comm.recv({kTypeB, 0, 0}, 0));
        b_ready.set();
      } else {
        b_ready.wait();
      }
      const auto a_rows = unpack_rows(comm.recv({kTypeA, t, 0}, t));
      std::vector<double> c_rows(static_cast<std::size_t>(rpt) * static_cast<std::size_t>(n));
      m.charge(comm.host(), rpt);
      multiply_rows(a_rows.data(), b_local.data(), c_rows.data(), n, 0, rpt);
      comm.send(t, {kTypeC, t, 0}, pack_rows(c_rows.data(), rpt, n));
    });
  }));
}

}  // namespace

AppResult run_matmul_p4(ClusterConfig base, int nodes) {
  return matmul(std::move(base), nodes, Stack::p4, 1);
}

AppResult run_matmul_ncs(ClusterConfig base, int nodes, NcsTier tier, int threads_per_node) {
  return matmul(std::move(base), nodes, ncs_stack(tier), threads_per_node);
}

AppResult run_matmul_coll(ClusterConfig base, int nodes, NcsTier tier) {
  Matmul m;
  const int n = m.n;
  NCS_ASSERT(nodes >= 1 && n % nodes == 0);
  const int rows = n / nodes;

  return m.finish(run_spmd(std::move(base), nodes, tier, [&](Comm& comm) {
    mps::Node& node = comm.node();
    const int rank = comm.rank();

    // B to everyone (tree fan-out at scale), then each rank's row block of
    // A in one scatter — the Fig 13/14 traffic as two collectives.
    Bytes b_blob;
    if (rank == 0) b_blob = pack_rows(m.b.data(), n, n);
    const auto b_local = unpack_rows(node.bcast(0, b_blob));

    std::vector<Bytes> a_slices;
    if (rank == 0) {
      a_slices.reserve(static_cast<std::size_t>(nodes));
      for (int i = 0; i < nodes; ++i) a_slices.push_back(pack_rows(m.a_rows(i, rows), rows, n));
    }
    const auto a_rows = unpack_rows(node.scatter(0, a_slices));

    std::vector<double> c_rows(static_cast<std::size_t>(rows) * static_cast<std::size_t>(n));
    m.charge(comm.host(), rows);
    multiply_rows(a_rows.data(), b_local.data(), c_rows.data(), n, 0, rows);

    const auto gathered = node.gather(0, pack_rows(c_rows.data(), rows, n));
    if (rank == 0)
      for (int i = 0; i < nodes; ++i)
        m.store(i, unpack_rows(gathered[static_cast<std::size_t>(i)]), rows);
    node.barrier();
  }));
}

}  // namespace ncs::cluster
