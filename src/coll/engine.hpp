// The collective engine: op entry points + autoselection + profiling.
//
// One Engine per process, bound to that process's Fabric (for mps::Node,
// the collective plane). Each op consults select() — honoring any per-op
// forced algorithm in Params — runs the chosen algorithm, and samples the
// op's wall (simulated) time into the obs Profiler twice: once into the
// aggregate Layer::coll histogram, once into a per-"op/algorithm" keyed
// histogram, so the bottleneck report can attribute collective time to
// the algorithm that spent it.
//
// Single-process groups short-circuit to the identity result without
// touching the fabric (and without profiling — there is nothing to
// attribute).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coll/fabric.hpp"
#include "coll/select.hpp"

namespace ncs::obs {
struct Hub;
}

namespace ncs::coll {

class OffloadPort;

class Engine {
 public:
  /// Samples land in `obs.prof`: Layer::coll plus a per-"op/algorithm"
  /// histogram.
  Engine(Fabric& fabric, Params params, const obs::Hub& obs)
      : fabric_(fabric), params_(params), obs_(&obs) {}

  const Params& params() const { return params_; }

  /// What select() picks for this group at this payload size.
  Algorithm algorithm_for(Op op, std::size_t bytes) const {
    return select(op, fabric_.n_procs(), bytes, params_);
  }

  /// Attaches the NIC-offload port (coll/offload.hpp). Attachment is part
  /// of cluster configuration and must be uniform across the group: with
  /// no port, Algorithm::nic_offload selections resolve to the host table
  /// on every rank alike.
  void set_offload(OffloadPort* port) { offload_ = port; }

  /// Root's payload lands on every rank (root included).
  Bytes bcast(int root, BytesView payload);

  /// Root returns one payload per rank; non-roots return {}.
  std::vector<Bytes> gather(int root, BytesView contribution);

  /// Root supplies n_procs payloads; everyone returns its own slice.
  Bytes scatter(int root, std::span<const Bytes> payloads);

  void barrier();

  /// Element-wise sum at the root; non-roots return {}.
  std::vector<double> reduce_sum(int root, std::span<const double> values);

  /// Element-wise sum on every rank.
  std::vector<double> allreduce_sum(std::span<const double> values);

  /// Every rank returns all contributions indexed by source rank.
  std::vector<Bytes> allgather(BytesView contribution);

  /// Rank r returns segment_of(n, n_procs, r) of the element-wise sum.
  std::vector<double> reduce_scatter_sum(std::span<const double> values);

 private:
  /// Scope guard sampling one op's latency at destruction.
  class Timed;

  /// The table's answer with the offload family masked out — what a
  /// nic_offload selection degrades to when no port is attached (or a
  /// bcast root is not rank 0).
  Algorithm host_algorithm_for(Op op, std::size_t bytes) const;

  /// One offloaded operation: begin/await on the port; on timeout, abort
  /// the NIC state and rebuild a bit-identical result from every rank's
  /// original contribution (fetched over the reliable plane, folded in
  /// the same tree order the firmware uses).
  Bytes offload_round(Op op, BytesView own);

  Fabric& fabric_;
  Params params_;
  const obs::Hub* obs_;
  OffloadPort* offload_ = nullptr;
  /// Offloaded ops burn one group-wide sequence number each; every rank
  /// must attempt the same set of offloaded ops in the same order.
  std::uint64_t offload_seq_ = 0;
};

}  // namespace ncs::coll
