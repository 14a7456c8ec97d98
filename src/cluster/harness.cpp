#include "cluster/harness.hpp"

#include <vector>

#include "cluster/bench_opts.hpp"
#include "common/assert.hpp"

namespace ncs::cluster {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

namespace {

/// Copies the run's profile, telemetry, per-core and fault-facing counters
/// out of the cluster.
void fill_runtime_stats(Cluster& c, AppResult& r) {
  if (c.profiler() != nullptr) r.bottleneck = bottleneck_report(c);
  const BenchTelemetry t = fold_telemetry(c);
  r.telemetry = t.enabled;
  r.telemetry_ticks = t.ticks;
  r.e2e_p99_us = t.e2e_p99_us;
  r.e2e_p999_us = t.e2e_p999_us;
  r.rma_p99_us = t.rma_p99_us;
  r.rma_p999_us = t.rma_p999_us;
  r.slo_min_compliance = t.slo_compliance;
  r.slo_max_burn = t.slo_max_burn;
  r.slo_hard_breaches = t.slo_hard_breaches;
  r.recorder_triggers = t.recorder_triggers;
  r.recorder_dumps = t.recorder_dumps;
  for (int p = 0; p < c.n_procs(); ++p) {
    mts::Scheduler& h = c.host(p);
    for (int core = 0; core < h.n_cores(); ++core) {
      const mts::CoreStats& s = h.core_stats(core);
      r.cores.push_back({p, core, s.dispatches, s.steals_in, s.steals_out,
                         s.migrations_in, s.cpu_busy});
      r.steals += s.steals_in;
    }
  }
  if (!c.has_ncs()) return;
  r.exceptions = c.ncs_exception_count();
  for (int i = 0; i < c.n_procs(); ++i)
    r.retransmits += c.node(i).error_control().stats().retransmits;
}

AppResult run_ranks(ClusterConfig base, int n_procs, Stack stack, const RankBody& body) {
  base.n_procs = n_procs;
  Cluster cluster(std::move(base));
  switch (stack) {
    case Stack::p4: cluster.init_p4(); break;
    case Stack::nsm:
    case Stack::one_node_nsm: cluster.init_ncs_nsm(); break;
    case Stack::hsm: cluster.init_ncs_hsm(); break;
    case Stack::one_node: break;
  }
  AppResult result;
  result.elapsed = cluster.run([&](int rank) {
    Comm comm(cluster, stack, rank);
    body(comm);
  });
  fill_runtime_stats(cluster, result);
  return result;
}

bool is_one_node(Stack s) { return s == Stack::one_node || s == Stack::one_node_nsm; }

}  // namespace

Stack ncs_stack(NcsTier tier) { return tier == NcsTier::nsm_p4 ? Stack::nsm : Stack::hsm; }

void Comm::send(int from_thread, Addr to, BytesView data) {
  if (stack_ == Stack::p4) {
    cluster_.p4().process(rank_).send(to.type, to.proc, data);
  } else {
    node().send(from_thread, to.thread, to.proc, data);
  }
}

Bytes Comm::recv(Addr from, int to_thread) {
  if (stack_ == Stack::p4) {
    int type = from.type;
    int proc = from.proc;
    return cluster_.p4().process(rank_).recv(&type, &proc);
  }
  return node().recv(from.thread, from.proc, to_thread);
}

void Comm::workers(int n, const std::string& name, int lead_priority,
                   const std::function<void(int)>& body) {
  NCS_ASSERT(n >= 1 && (stack_ != Stack::p4 || n == 1));
  if (stack_ == Stack::p4 || (is_one_node(stack_) && n == 1)) {
    body(0);
    return;
  }
  if (is_one_node(stack_)) {
    std::vector<mts::Thread*> threads;
    for (int t = 0; t < n; ++t)
      threads.push_back(host().spawn([&body, t] { body(t); }, {.name = name + std::to_string(t)}));
    for (mts::Thread* th : threads) host().join(th);
    return;
  }
  std::vector<int> tids;
  for (int t = 0; t < n; ++t)
    tids.push_back(node().t_create([&body, t] { body(t); },
                                   t == 0 ? lead_priority : mts::kDefaultPriority,
                                   name + std::to_string(t)));
  for (int tid : tids) host().join(node().user_thread(tid));
}

AppResult run_hosted(ClusterConfig base, int nodes, Stack stack, const RankBody& body) {
  return run_ranks(std::move(base), is_one_node(stack) ? 1 : nodes + 1, stack, body);
}

AppResult run_spmd(ClusterConfig base, int nodes, NcsTier tier, const RankBody& body) {
  return run_ranks(std::move(base), nodes, ncs_stack(tier), body);
}

}  // namespace ncs::cluster
