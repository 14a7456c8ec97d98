#include "coll/engine.hpp"

#include <string>
#include <utility>

#include "coll/algorithms.hpp"
#include "coll/offload.hpp"
#include "common/assert.hpp"
#include "obs/hub.hpp"
#include "obs/prof.hpp"

namespace ncs::coll {

class Engine::Timed {
 public:
  Timed(Engine& engine, Op op, Algorithm algorithm)
      : engine_(engine), op_(op), algorithm_(algorithm), began_(engine.fabric_.now()) {}

  ~Timed() {
    obs::Profiler* prof = engine_.obs_->prof;
    if (prof == nullptr) return;
    const Duration elapsed = engine_.fabric_.now() - began_;
    prof->record(obs::Layer::coll, elapsed);
    prof->record_coll(std::string(to_string(op_)) + "/" + to_string(algorithm_), elapsed);
  }

 private:
  Engine& engine_;
  Op op_;
  Algorithm algorithm_;
  TimePoint began_;
};

Algorithm Engine::host_algorithm_for(Op op, std::size_t bytes) const {
  Params host = params_;
  host.nic_offload = false;
  if (host.forced(op) == Algorithm::nic_offload) host.set_force(op, Algorithm::automatic);
  return select(op, fabric_.n_procs(), bytes, host);
}

Bytes Engine::offload_round(Op op, BytesView own) {
  const std::uint64_t seq = offload_seq_++;
  offload_->begin(seq, op, own);
  if (auto result = offload_->await(seq)) return std::move(*result);

  // Timeout (fault in the combine tree, or the context was torn down).
  // Drop the NIC's partial accumulation for this sequence *before*
  // restarting on the host — late cells must not double-contribute — then
  // rebuild from original contributions. fetch() blocks until the remote
  // rank has begun the same sequence, which preserves barrier semantics.
  offload_->abort(seq);
  const int n = fabric_.n_procs();
  const int rank = fabric_.rank();
  if (op == Op::bcast) return rank == 0 ? to_bytes(own) : offload_->fetch(seq, 0);
  std::vector<Bytes> contribs(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    contribs[static_cast<std::size_t>(r)] =
        r == rank ? to_bytes(own) : offload_->fetch(seq, r);
  if (op == Op::barrier) return {};
  return pack_doubles(tree_fold(contribs, n, params_.offload_radix));
}

Bytes Engine::bcast(int root, BytesView payload) {
  NCS_ASSERT(root >= 0 && root < fabric_.n_procs());
  if (fabric_.n_procs() == 1) return to_bytes(payload);
  Algorithm a = algorithm_for(Op::bcast, payload.size());
  // The offload tree is rooted at rank 0; other roots resolve to the host
  // table (same `root` argument on every rank, so the group agrees).
  if (a == Algorithm::nic_offload && (offload_ == nullptr || root != 0))
    a = host_algorithm_for(Op::bcast, payload.size());
  Timed timed(*this, Op::bcast, a);
  if (a == Algorithm::nic_offload) {
    // Flag round through the adapter tree: the root pushes one header PDU
    // carrying either the payload inline (small) or a "big" marker, in
    // which case the payload itself follows on the host binomial tree.
    // Non-roots learn the size in-band, so selection never depends on it.
    Bytes header;
    if (fabric_.rank() == 0) {
      const bool inline_ok = payload.size() <= params_.offload_max_bytes;
      header.push_back(static_cast<std::byte>(inline_ok ? 1 : 0));
      if (inline_ok) append(header, payload);
    }
    const Bytes got = offload_round(Op::bcast, header);
    NCS_ASSERT(!got.empty());
    if (got.front() == std::byte{1}) return Bytes(got.begin() + 1, got.end());
    return bcast_binomial(fabric_, 0, payload);
  }
  return a == Algorithm::binomial_tree ? bcast_binomial(fabric_, root, payload)
                                       : bcast_flat(fabric_, root, payload);
}

std::vector<Bytes> Engine::gather(int root, BytesView contribution) {
  NCS_ASSERT(root >= 0 && root < fabric_.n_procs());
  if (fabric_.n_procs() == 1) return {to_bytes(contribution)};
  const Algorithm a = algorithm_for(Op::gather, contribution.size());
  Timed timed(*this, Op::gather, a);
  return a == Algorithm::binomial_tree ? gather_binomial(fabric_, root, contribution)
                                       : gather_flat(fabric_, root, contribution);
}

Bytes Engine::scatter(int root, std::span<const Bytes> payloads) {
  NCS_ASSERT(root >= 0 && root < fabric_.n_procs());
  if (fabric_.n_procs() == 1) {
    NCS_ASSERT_MSG(payloads.size() == 1, "scatter needs one payload per rank");
    return payloads.front();
  }
  const std::size_t bytes =
      fabric_.rank() == root && !payloads.empty() ? payloads.front().size() : 0;
  const Algorithm a = algorithm_for(Op::scatter, bytes);
  Timed timed(*this, Op::scatter, a);
  return a == Algorithm::binomial_tree ? scatter_binomial(fabric_, root, payloads)
                                       : scatter_flat(fabric_, root, payloads);
}

void Engine::barrier() {
  if (fabric_.n_procs() == 1) return;
  Algorithm a = algorithm_for(Op::barrier, 0);
  if (a == Algorithm::nic_offload && offload_ == nullptr) a = host_algorithm_for(Op::barrier, 0);
  Timed timed(*this, Op::barrier, a);
  if (a == Algorithm::nic_offload) {
    offload_round(Op::barrier, {});
  } else if (a == Algorithm::dissemination) {
    barrier_dissemination(fabric_);
  } else {
    barrier_flat(fabric_);
  }
}

std::vector<double> Engine::reduce_sum(int root, std::span<const double> values) {
  NCS_ASSERT(root >= 0 && root < fabric_.n_procs());
  if (fabric_.n_procs() == 1) return {values.begin(), values.end()};
  const Algorithm a = algorithm_for(Op::reduce, values.size_bytes());
  Timed timed(*this, Op::reduce, a);
  return a == Algorithm::binomial_tree ? reduce_binomial(fabric_, root, values)
                                       : reduce_flat(fabric_, root, values);
}

std::vector<double> Engine::allreduce_sum(std::span<const double> values) {
  if (fabric_.n_procs() == 1) return {values.begin(), values.end()};
  Algorithm a = algorithm_for(Op::allreduce, values.size_bytes());
  if (a == Algorithm::nic_offload && offload_ == nullptr)
    a = host_algorithm_for(Op::allreduce, values.size_bytes());
  Timed timed(*this, Op::allreduce, a);
  switch (a) {
    case Algorithm::nic_offload:
      return unpack_doubles(offload_round(Op::allreduce, pack_doubles(values)));
    case Algorithm::recursive_doubling:
      return allreduce_recursive_doubling(fabric_, values);
    case Algorithm::ring:
      return allreduce_ring(fabric_, values, params_.ring_chunk_bytes);
    default:
      return allreduce_flat(fabric_, values);
  }
}

std::vector<Bytes> Engine::allgather(BytesView contribution) {
  if (fabric_.n_procs() == 1) return {to_bytes(contribution)};
  const Algorithm a = algorithm_for(Op::allgather, contribution.size());
  Timed timed(*this, Op::allgather, a);
  return a == Algorithm::ring ? allgather_ring(fabric_, contribution)
                              : allgather_flat(fabric_, contribution);
}

std::vector<double> Engine::reduce_scatter_sum(std::span<const double> values) {
  if (fabric_.n_procs() == 1) return {values.begin(), values.end()};
  const Algorithm a = algorithm_for(Op::reduce_scatter, values.size_bytes());
  Timed timed(*this, Op::reduce_scatter, a);
  return a == Algorithm::ring
             ? reduce_scatter_ring(fabric_, values, params_.ring_chunk_bytes)
             : reduce_scatter_flat(fabric_, values);
}

}  // namespace ncs::coll
