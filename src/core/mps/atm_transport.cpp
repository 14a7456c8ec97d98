#include "core/mps/atm_transport.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/prof.hpp"

namespace ncs::mps {

AtmTransport::AtmTransport(mts::Scheduler& host, atm::Nic& nic, Params params,
                           const obs::Hub& obs)
    : host_(host), nic_(nic), params_(params), rx_(host), obs_(&obs) {
  NCS_ASSERT_MSG(params_.chunk_size >= kHeaderBytes, "chunk must hold the NCS header");
  NCS_ASSERT_MSG(params_.chunk_size <= nic.params().io_buffer_size,
                 "chunk larger than a NIC I/O buffer");
  nic_.set_rx_handler([this](atm::VcId vc, Bytes data, bool eom) {
    rx_.push(RxChunk{vc, std::move(data), eom});
  });
  if (params_.signaling != nullptr) {
    // A network-side RELEASE (peer teardown or port failure) retires the
    // cached circuit; the next send to that peer re-signals.
    params_.signaling->set_release_handler([this](atm::VcId a, atm::VcId b) {
      for (auto it = svc_to_.begin(); it != svc_to_.end();) {
        if (it->second == a || it->second == b) {
          ++stats_.svc_invalidations;
          NCS_INFO("ncs.hsm", "SVC to p%d released, will re-signal", it->first);
          it = svc_to_.erase(it);
        } else {
          ++it;
        }
      }
    });
  }
}

void AtmTransport::wait_for_tx_buffer() {
  const TimePoint started = host_.engine().now();
  while (!nic_.tx_buffer_available()) {
    ++stats_.tx_buffer_stalls;
    mts::Thread* self = host_.current();
    nic_.notify_tx_buffer([this, self] { host_.unblock(self); });
    host_.block(sim::Activity::communicate);
  }
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
    const Duration stalled = host_.engine().now() - started;
    if (stalled > Duration::zero()) prof->record(obs::Layer::tx_buffer_stall, stalled);
  }
}

atm::VcId AtmTransport::vc_towards(int to_process) {
  if (params_.signaling == nullptr) return atm::vc_to(to_process);

  const auto it = svc_to_.find(to_process);
  if (it != svc_to_.end()) return it->second;

  // First traffic for this peer: set up a switched circuit. The signaling
  // handshake is asynchronous; park the calling (send) thread until the
  // CONNECT arrives. Rejections (e.g. the peer's port is down) back off
  // and retry — a transient failure heals, a permanent one aborts.
  for (int attempt = 0;; ++attempt) {
    mts::Thread* self = host_.current();
    std::optional<Result<atm::VcId>> outcome;
    // Cache the circuit as soon as CONNECT lands, so a RELEASE that
    // arrives before this thread runs again still finds and retires it.
    params_.signaling->open_call(
        to_process, [this, self, to_process, &outcome](Result<atm::VcId> vc) {
          if (vc.is_ok()) svc_to_.emplace(to_process, vc.value());
          outcome = std::move(vc);
          host_.unblock(self);
        });
    ++stats_.svc_calls_opened;
    while (!outcome.has_value()) host_.block(sim::Activity::communicate);
    if (const auto cached = svc_to_.find(to_process); cached != svc_to_.end())
      return cached->second;
    NCS_ASSERT_MSG(attempt < params_.svc_retry_limit,
                   "SVC call setup rejected past the retry limit");
    ++stats_.svc_retries;
    NCS_WARN("ncs.hsm", "SVC setup to p%d rejected, retrying (%d)", to_process, attempt + 1);
    host_.sleep_for(params_.svc_retry_backoff);
  }
}

void AtmTransport::submit(const Message& msg) { submit_bulk(msg, params_.chunk_size); }

void AtmTransport::submit_bulk(const Message& msg, std::size_t chunk_hint) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "submit from a foreign thread");
  const std::size_t chunk =
      std::clamp(chunk_hint, params_.chunk_size, nic_.params().io_buffer_size);
  const atm::VcId vc = vc_towards(msg.to_process);
  const Bytes wire = encode(msg);

  std::size_t off = 0;
  do {
    const std::size_t len = std::min(chunk, wire.size() - off);
    // Backpressure first: copying into a buffer requires owning one.
    wait_for_tx_buffer();
    // Trap + copy into the mapped kernel buffer (Fig 3b: 2 accesses/word).
    host_.charge_cycles(params_.costs.ncs_chunk_cycles(len), sim::Activity::communicate);
    Bytes staged(wire.begin() + static_cast<std::ptrdiff_t>(off),
                 wire.begin() + static_cast<std::ptrdiff_t>(off + len));
    const bool last = off + len == wire.size();
    nic_.submit_tx(vc, std::move(staged), last);
    ++stats_.tx_chunks;
    off += len;
  } while (off < wire.size());
}

Transport::CostHints AtmTransport::cost_hints() const {
  CostHints h;
  // Fixed per-chunk host cost: the trap plus the NCS buffer bookkeeping
  // (the copy itself is the size-proportional part, reported as bandwidth).
  h.per_message =
      host_.cycles(params_.costs.trap_cycles + params_.costs.ncs_per_chunk_cycles);
  const double cycles_per_byte = params_.costs.ncs_accesses_per_word /
                                 params_.costs.word_bytes *
                                 params_.costs.cycles_per_bus_access;
  h.bytes_per_sec = host_.params().cpu_mhz * 1e6 / cycles_per_byte;
  h.dma_window = nic_.params().io_buffer_size;
  return h;
}

Message AtmTransport::recv_next() {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "recv_next from a foreign thread");
  for (;;) {
    RxChunk chunk = rx_.pop(sim::Activity::communicate);
    ++stats_.rx_chunks;
    // Trap + copy out of the mapped kernel buffer.
    host_.charge_cycles(params_.costs.ncs_chunk_cycles(chunk.data.size()),
                        sim::Activity::communicate);
    Bytes& buf = partial_[chunk.vc];
    append(buf, chunk.data);
    if (!chunk.end_of_message) continue;

    // A chunk lost on the wire (no error control) leaves an inconsistent
    // reassembly buffer; drop it — recovering is the error-control
    // policy's job, not the transport's.
    std::optional<Message> msg = try_decode(buf);
    buf.clear();
    // On the PVC mesh the VC label encodes the source; cross-check it.
    // SVC labels are dynamic, so the header is the source of truth there.
    const bool src_consistent =
        params_.signaling != nullptr || !msg.has_value() ||
        msg->from_process == atm::src_of(chunk.vc);
    if (!msg.has_value() || !src_consistent) {
      ++stats_.rx_frame_errors;
      NCS_WARN("ncs.hsm", "dropping garbled reassembly on vci %u", chunk.vc.vci);
      if (frame_error_handler_)
        frame_error_handler_(msg.has_value() ? msg->from_process
                                             : atm::src_of(chunk.vc));
      continue;
    }
    return std::move(*msg);
  }
}

}  // namespace ncs::mps
