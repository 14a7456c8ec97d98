#include "core/mps/node.hpp"

#include <utility>

#include "coll/engine.hpp"
#include "common/assert.hpp"
#include "rma/engine.hpp"
#include "common/log.hpp"

namespace ncs::mps {

namespace {
/// Ack payload: [kCtlAck][credit flag]. Credit-bearing acks release a
/// flow-control window slot; acks for middle rendezvous chunks carry 0 —
/// the whole transfer holds one credit, returned by the final chunk's ack.
Bytes ack_payload(bool credit) {
  Bytes b(2);
  b[0] = static_cast<std::byte>(kCtlAck);
  b[1] = static_cast<std::byte>(credit ? 1 : 0);
  return b;
}

/// Profiler key for a data message — the same (from, to, seq) triple error
/// control dedups by, so it is unique per payload message. Control traffic
/// reuses seq 0 and must never be keyed this way.
obs::Profiler::MsgKey key_of(const Message& m) {
  return {m.from_process, m.to_process, m.seq};
}

/// A point strictly inside [begin, end) when the span is non-empty — where
/// flow events must land so Perfetto binds the arrow to the enclosing span.
TimePoint midpoint(TimePoint begin, TimePoint end) {
  return begin + Duration::picoseconds((end.ps() - begin.ps()) / 2);
}
}  // namespace

/// The coll::Engine's view of this node: the collective plane (reserved
/// endpoint kCollectiveThread, per-source FIFO delivery).
struct Node::CollFabric final : coll::Fabric {
  explicit CollFabric(Node& n) : node(n) {}
  int rank() const override { return node.rank_; }
  int n_procs() const override { return node.n_procs_; }
  TimePoint now() const override { return node.host_.engine().now(); }
  void send(int to, BytesView data, bool wait) override {
    node.collective_send(to, data, wait);
  }
  Bytes recv(int from) override { return node.collective_recv(from); }
  Node& node;
};

Node::~Node() = default;

void Node::set_rma(rma::Engine* engine) {
  rma_ = engine;
  if (rma_ != nullptr) {
    // Failed one-sided completions surface through the same handler as
    // two-sided delivery failures (Section 3.1's exception service).
    rma_->set_exception_hook([this](const NcsException& e) {
      ++stats_.exceptions;
      trigger_recorder(obs::FlightRecorder::EntryKind::exception, to_string(e.kind()),
                       e.peer(), e.seq());
      if (exception_handler_) exception_handler_(e.kind(), e.peer(), e.seq());
    });
  }
}

rma::Engine& Node::rma() {
  NCS_ASSERT_MSG(rma_ != nullptr, "one-sided plane not attached (enable rma in the config)");
  return *rma_;
}

Node::Node(mts::Scheduler& host, int rank, int n_procs, std::unique_ptr<Transport> transport,
           Options options, const obs::Hub& obs)
    : host_(host),
      rank_(rank),
      n_procs_(n_procs),
      transport_(std::move(transport)),
      options_(options),
      mailbox_(host),
      submit_mutex_(host),
      send_queue_(host),
      retx_queue_(host),
      fc_(host, options.flow, obs, rank),
      ec_(host.engine(), options.error, [this](Message m) { retx_queue_.push(std::move(m)); },
          obs, rank),
      obs_(&obs),
      send_track_(rank, "/mps/send"),
      recv_track_(rank, "/mps/recv") {
  NCS_ASSERT(transport_ != nullptr);
  NCS_ASSERT(rank >= 0 && rank < n_procs);

  coll_fabric_ = std::make_unique<CollFabric>(*this);
  coll_ = std::make_unique<coll::Engine>(*coll_fabric_, options_.coll, obs);

  proto_ = std::make_unique<ProtoEngine>(
      host_, *transport_, fc_, ec_, options_.proto, rank_,
      options_.local_copy_cycles_per_byte, options_.local_send_fixed_cycles,
      ProtoEngine::Hooks{
          .submit = [this](const Message& m) { submit_locked(m); },
          .submit_bulk =
              [this](const Message& m, std::size_t hint) {
                mts::LockGuard guard(submit_mutex_);
                transport_->submit_bulk(m, hint);
              },
          .deliver = [this](Message m) { deliver_from_network(std::move(m)); },
          .request_flush =
              [this](int dst) { send_queue_.push(SendRequest{Message{}, nullptr, dst}); },
          .exception =
              [this](Exception kind, int peer, std::uint32_t seq) {
                trigger_recorder(obs::FlightRecorder::EntryKind::exception, to_string(kind),
                                 peer, seq);
                if (exception_handler_) exception_handler_(kind, peer, seq);
              },
      },
      obs);

  // System threads (paper Fig 8). High priority so protocol processing
  // preempts queued compute work at dispatch points.
  host_.spawn([this] { send_thread_main(); },
              {.name = "ncs-send", .priority = 1, .cls = mts::ThreadClass::system});
  host_.spawn([this] { recv_thread_main(); },
              {.name = "ncs-recv", .priority = 1, .cls = mts::ThreadClass::system});
  if (options_.error.kind == ErrorControlKind::retransmit) {
    host_.spawn([this] { ec_thread_main(); },
                {.name = "ncs-ec", .priority = 1, .cls = mts::ThreadClass::system});
  }

  // Exception-handling service: surface unrecoverable delivery failures to
  // the application's registered handler (paper Section 3.1). Abandoning a
  // message must also return its flow-control window credit — the ack that
  // would have released it is never coming, and a leaked credit leaves the
  // send thread stalled forever once the window fills with dead messages.
  // Protocol frames complicate the credit question: only eager frames and
  // final rendezvous chunks hold a window credit, so only those may return
  // one on abandonment (a middle chunk's credit belongs to its transfer).
  ec_.set_give_up_handler([this](const Message& m) {
    if (!ProtoEngine::is_frame(m) || ProtoEngine::frame_takes_credit(m))
      fc_.on_ack(m.to_process);
    trigger_recorder(obs::FlightRecorder::EntryKind::give_up, "ec_give_up", m.to_process,
                     m.seq);
    if (exception_handler_)
      exception_handler_(Exception::message_timeout, m.to_process, m.seq);
  });
  transport_->set_frame_error_handler([this](int peer) {
    trigger_recorder(obs::FlightRecorder::EntryKind::exception,
                     to_string(Exception::frame_error), peer, 0);
    if (exception_handler_) exception_handler_(Exception::frame_error, peer, 0);
  });
}

int Node::t_create(std::function<void()> body, int priority, std::string name) {
  const int tid = static_cast<int>(user_threads_.size());
  if (name.empty()) name = "thread" + std::to_string(tid);
  // An NcsException escaping the thread body is a clean (if failed) exit:
  // the thread terminates and the run can finish, instead of the exception
  // unwinding into the fiber trampoline and aborting the process.
  auto wrapped = [this, body = std::move(body)] {
    try {
      body();
    } catch (const NcsException& e) {
      ++stats_.threads_aborted;
      NCS_WARN("ncs", "node %d thread aborted by %s", rank_, e.what());
    }
  };
  user_threads_.push_back(host_.spawn(std::move(wrapped),
                                      {.name = std::move(name),
                                       .priority = priority,
                                       .cls = mts::ThreadClass::user}));
  return tid;
}

mts::Thread* Node::user_thread(int tid) {
  NCS_ASSERT(tid >= 0 && static_cast<std::size_t>(tid) < user_threads_.size());
  return user_threads_[static_cast<std::size_t>(tid)];
}

void Node::block() { host_.block(sim::Activity::idle); }

void Node::unblock(int tid) { host_.unblock(user_thread(tid)); }

void Node::send(int from_thread, int to_thread, int to_process, BytesView data) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "NCS_send from a foreign thread");
  NCS_ASSERT(to_process >= 0 && to_process < n_procs_);
  Message msg{rank_, from_thread, to_process, to_thread,
              next_seq_[to_process]++, to_bytes(data)};
  ++stats_.sends;
  stats_.bytes_sent += data.size();
  if (obs::Profiler* prof = obs_->prof; prof != nullptr)
    prof->on_enqueue(key_of(msg), host_.engine().now());

  // Wake the send thread and block until it completes the hand-off —
  // the paper's NCS_send semantics.
  mts::Event done(host_);
  send_queue_.push(SendRequest{std::move(msg), &done});
  done.wait();
}

Message Node::recv_matching(const Pattern& pattern) {
  try {
    return mailbox_.recv(pattern, options_.recv_timeout);
  } catch (const NcsException& e) {
    ++stats_.exceptions;
    NCS_WARN("ncs", "node %d recv raised %s", rank_, e.what());
    trigger_recorder(obs::FlightRecorder::EntryKind::exception, to_string(e.kind()), e.peer(),
                     e.seq());
    if (exception_handler_) exception_handler_(e.kind(), e.peer(), e.seq());
    throw;
  }
}

Bytes Node::recv(int from_thread, int from_process, int to_thread, int* src_thread,
                 int* src_process) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "NCS_recv from a foreign thread");
  // On-demand progress: pull runnable protocol planes onto this core before
  // waiting, so communication advances inside the receive (MPI-style). A
  // no-op on one core or under dedicated-core progress.
  host_.progress_hint();
  const TimePoint wait_began = host_.engine().now();
  Message msg = recv_matching(Pattern{from_thread, from_process, to_thread, rank_});
  ++stats_.recvs;
  stats_.bytes_received += msg.data.size();
  if (src_thread != nullptr) *src_thread = msg.from_thread;
  if (src_process != nullptr) *src_process = msg.from_process;
  note_received(msg, wait_began);
  return std::move(msg.data);
}

void Node::note_received(const Message& msg, TimePoint wait_began) {
  const TimePoint now = host_.engine().now();
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
    trace->complete(recv_track_.id(*trace),
                    "recv p" + std::to_string(msg.from_process) + " " +
                        std::to_string(msg.data.size()) + "B",
                    "mps", wait_began, now - wait_began);
    trace->flow_end(recv_track_.id(*trace), "msg", "flow", midpoint(wait_began, now),
                    obs::msg_flow_id(msg.from_process, msg.to_process, msg.seq));
  }
  if (obs::Profiler* prof = obs_->prof; prof != nullptr) prof->on_wakeup(key_of(msg), now);
}

void Node::bcast(int from_thread, std::span<const Endpoint> destinations, BytesView data) {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "NCS_bcast from a foreign thread");
  ++stats_.bcasts;
  // Queue the whole fan-out, then wait once for the final hand-off: the
  // send thread pipelines the copies while earlier transfers drain.
  mts::Event done(host_);
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    const Endpoint& ep = destinations[i];
    NCS_ASSERT(ep.process >= 0 && ep.process < n_procs_);
    Message msg{rank_, from_thread, ep.process, ep.thread,
                next_seq_[ep.process]++, to_bytes(data)};
    stats_.bytes_sent += data.size();
    if (obs::Profiler* prof = obs_->prof; prof != nullptr)
      prof->on_enqueue(key_of(msg), host_.engine().now());
    send_queue_.push(
        SendRequest{std::move(msg), i + 1 == destinations.size() ? &done : nullptr});
  }
  if (!destinations.empty()) done.wait();
}

bool Node::available(int from_thread, int from_process, int to_thread) const {
  return mailbox_.available(Pattern{from_thread, from_process, to_thread, rank_});
}

void Node::enter_collective() {
  NCS_ASSERT_MSG(mts::Scheduler::active() == &host_, "collective from a foreign thread");
  ++stats_.collectives;
}

void Node::barrier() {
  enter_collective();
  coll_->barrier();
}

void Node::set_coll_offload(coll::OffloadPort* port) { coll_->set_offload(port); }

void Node::collective_send(int to_process, BytesView data, bool wait) {
  NCS_ASSERT(to_process >= 0 && to_process < n_procs_);
  Message msg{rank_, kCollectiveThread, to_process, kCollectiveThread,
              next_seq_[to_process]++, to_bytes(data)};
  stats_.bytes_sent += data.size();
  if (obs::Profiler* prof = obs_->prof; prof != nullptr)
    prof->on_enqueue(key_of(msg), host_.engine().now());
  if (!wait) {
    // Queued fan-out: the send system thread drains the batch while the
    // algorithm moves on (a later hand-off or receive provides the sync).
    send_queue_.push(SendRequest{std::move(msg), nullptr});
    return;
  }
  mts::Event done(host_);
  send_queue_.push(SendRequest{std::move(msg), &done});
  done.wait();
}

Bytes Node::collective_recv(int from_process) {
  // Same on-demand progress pull as NCS_recv: without it a collective
  // blocked on its peer's token under ProgressModel::on_demand leaves the
  // send/receive planes stranded on an idle core — the multi-core audit
  // found collectives were the one blocking receive path missing the hint.
  // A no-op on one core or under dedicated-core progress, so single-core
  // digests are unchanged.
  host_.progress_hint();
  const TimePoint wait_began = host_.engine().now();
  Message msg =
      recv_matching(Pattern{kCollectiveThread, from_process, kCollectiveThread, rank_});
  stats_.bytes_received += msg.data.size();
  note_received(msg, wait_began);
  return std::move(msg.data);
}

std::vector<Bytes> Node::gather(int root, BytesView contribution) {
  enter_collective();
  return coll_->gather(root, contribution);
}

Bytes Node::scatter(int root, std::span<const Bytes> payloads) {
  enter_collective();
  return coll_->scatter(root, payloads);
}

Bytes Node::bcast(int root, BytesView payload) {
  enter_collective();
  return coll_->bcast(root, payload);
}

std::vector<Bytes> Node::all_to_all(BytesView contribution) { return allgather(contribution); }

std::vector<Bytes> Node::allgather(BytesView contribution) {
  enter_collective();
  return coll_->allgather(contribution);
}

std::vector<double> Node::reduce_sum(int root, std::span<const double> values) {
  enter_collective();
  return coll_->reduce_sum(root, values);
}

std::vector<double> Node::allreduce_sum(std::span<const double> values) {
  enter_collective();
  return coll_->allreduce_sum(values);
}

std::vector<double> Node::reduce_scatter_sum(std::span<const double> values) {
  enter_collective();
  return coll_->reduce_scatter_sum(values);
}

void Node::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/sends", &stats_.sends);
  reg.counter(prefix + "/recvs", &stats_.recvs);
  reg.counter(prefix + "/bcasts", &stats_.bcasts);
  reg.counter(prefix + "/collectives", &stats_.collectives);
  reg.counter(prefix + "/bytes_sent", &stats_.bytes_sent);
  reg.counter(prefix + "/bytes_received", &stats_.bytes_received);
  reg.counter(prefix + "/acks_sent", &stats_.acks_sent);
  reg.counter(prefix + "/local_deliveries", &stats_.local_deliveries);
  reg.counter(prefix + "/exceptions", &stats_.exceptions);
  reg.counter(prefix + "/threads_aborted", &stats_.threads_aborted);
  fc_.register_metrics(reg, prefix + "/flow");
  ec_.register_metrics(reg, prefix + "/ec");
  if (proto_->enabled()) proto_->register_metrics(reg, prefix + "/proto");
}

void Node::trigger_recorder(obs::FlightRecorder::EntryKind kind, const std::string& what,
                            int peer, std::uint32_t seq) {
  if (obs::FlightRecorder* recorder = obs_->recorder; recorder != nullptr)
    recorder->trigger(rank_, kind, host_.engine().now(), what, peer, seq);
}

void Node::submit_locked(const Message& msg) {
  mts::LockGuard guard(submit_mutex_);
  transport_->submit(msg);
}

void Node::send_thread_main() {
  for (;;) {
    SendRequest req = send_queue_.pop(sim::Activity::communicate);
    const TimePoint began = host_.engine().now();
    if (req.flush_dst >= 0) {
      // Flush-timeout marker parked by the protocol engine's timer: the
      // flush itself must run here, where blocking on flow control is
      // allowed.
      proto_->flush(req.flush_dst, ProtoEngine::FlushReason::timeout);
      continue;
    }
    if (req.msg.to_process == rank_) {
      // Intra-process delivery: shared address space, one memory copy.
      host_.charge_cycles(options_.local_send_fixed_cycles +
                              options_.local_copy_cycles_per_byte *
                                  static_cast<double>(req.msg.data.size()),
                          sim::Activity::communicate);
      ++stats_.local_deliveries;
      const TimePoint delivered = host_.engine().now();
      if (obs::Profiler* prof = obs_->prof; prof != nullptr) {
        // No flow control or network leg locally: the copy is the whole
        // transport stage, and delivery coincides with the hand-off.
        const obs::Profiler::MsgKey k = key_of(req.msg);
        prof->on_dequeue(k, began);
        prof->on_admit(k, began);
        prof->on_handoff(k, delivered);
        prof->on_deliver(k, delivered);
      }
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
        trace->complete(send_track_.id(*trace),
                        "local " + std::to_string(req.msg.data.size()) + "B", "mps", began,
                        delivered - began);
        trace->flow_start(send_track_.id(*trace), "msg", "flow", midpoint(began, delivered),
                          obs::msg_flow_id(req.msg.from_process, req.msg.to_process,
                                           req.msg.seq));
      }
      mailbox_.deliver(std::move(req.msg));
      if (req.done != nullptr) req.done->set();
      continue;
    }
    const bool is_control = req.msg.to_thread == kControlThread;
    if (obs::Profiler* prof = obs_->prof; prof != nullptr && !is_control)
      prof->on_dequeue(key_of(req.msg), began);
    if (!is_control && proto_->enabled()) {
      if (proto_->use_rendezvous(req.msg.data.size())) {
        proto_->rendezvous(req.msg);
      } else {
        proto_->eager_enqueue(std::move(req.msg));
      }
      // Eager completion is buffered-send: the caller resumes as soon as
      // its payload is in the batch. Rendezvous kept it blocked through
      // the whole transfer (NCS_send semantics for bulk data).
      if (req.done != nullptr) req.done->set();
      // No more sends queued behind this one: flush the half-full batches
      // rather than sit on them until the timeout.
      if (send_queue_.empty() && proto_->params().flush_on_idle && proto_->has_pending())
        proto_->flush_all(ProtoEngine::FlushReason::idle);
      continue;
    }
    if (!is_control) {
      fc_.before_send(req.msg);
      if (obs::Profiler* prof = obs_->prof; prof != nullptr)
        prof->on_admit(key_of(req.msg), host_.engine().now());
    }
    submit_locked(req.msg);
    if (!is_control) ec_.on_sent(req.msg);
    if (!is_control) {
      const TimePoint ended = host_.engine().now();
      if (obs::Profiler* prof = obs_->prof; prof != nullptr)
        prof->on_handoff(key_of(req.msg), ended);
      if (obs::TraceLog* trace = obs_->trace; trace != nullptr) {
        trace->complete(send_track_.id(*trace),
                        "send->p" + std::to_string(req.msg.to_process) + " " +
                            std::to_string(req.msg.data.size()) + "B",
                        "mps", began, ended - began);
        trace->flow_start(send_track_.id(*trace), "msg", "flow", midpoint(began, ended),
                          obs::msg_flow_id(req.msg.from_process, req.msg.to_process,
                                           req.msg.seq));
      }
    }
    if (req.done != nullptr) req.done->set();
  }
}

void Node::recv_thread_main() {
  for (;;) {
    Message msg = transport_->recv_next();
    NCS_ASSERT(msg.to_process == rank_);
    if (msg.to_thread == kControlThread) {
      handle_control(msg);
      continue;
    }
    // Every arrival is acked (duplicates too — the original ack may have
    // been lost; held out-of-order messages are received, just not yet
    // deliverable), then the error-control policy decides what the
    // application may see and in what order.
    const bool need_ack = fc_.wants_acks() || ec_.wants_acks();
    if (ProtoEngine::is_frame(msg)) {
      // Frames are the ack/dedup/reorder unit; the engine unpacks the
      // in-order survivors back into application messages.
      if (need_ack) send_ack_for(msg, ProtoEngine::frame_takes_credit(msg));
      for (Message& f : ec_.accept(std::move(msg))) proto_->rx_frame(std::move(f));
      continue;
    }
    if (need_ack) send_ack_for(msg, true);
    for (Message& m : ec_.accept(std::move(msg))) deliver_from_network(std::move(m));
  }
}

void Node::deliver_from_network(Message msg) {
  if (obs::TraceLog* trace = obs_->trace; trace != nullptr)
    trace->instant(recv_track_.id(*trace),
                   "deliver p" + std::to_string(msg.from_process) + " " +
                       std::to_string(msg.data.size()) + "B",
                   "mps", host_.engine().now());
  if (obs::Profiler* prof = obs_->prof; prof != nullptr)
    prof->on_deliver(key_of(msg), host_.engine().now());
  mailbox_.deliver(std::move(msg));
}

void Node::ec_thread_main() {
  for (;;) {
    Message msg = retx_queue_.pop(sim::Activity::communicate);
    NCS_DEBUG("ncs.ec", "node %d retransmitting seq %u to %d", rank_, msg.seq, msg.to_process);
    submit_locked(msg);
    ec_.on_sent(msg);
  }
}

void Node::send_ack_for(const Message& msg, bool credit) {
  Message ack{rank_, kControlThread, msg.from_process, kControlThread, msg.seq,
              ack_payload(credit)};
  ++stats_.acks_sent;
  // Sent directly from the receive thread: routing acks through the send
  // queue would deadlock when the send thread itself is blocked waiting
  // for window credit.
  submit_locked(ack);
}

void Node::handle_control(const Message& msg) {
  NCS_ASSERT(!msg.data.empty());
  switch (static_cast<std::uint8_t>(msg.data[0])) {
    case kCtlAck: {
      // Legacy single-byte acks (no flag) always carried a credit.
      const bool credit =
          msg.data.size() < 2 || static_cast<std::uint8_t>(msg.data[1]) != 0;
      if (credit) fc_.on_ack(msg.from_process);
      ec_.on_ack(msg.from_process, msg.seq);
      break;
    }
    case kCtlRts: proto_->on_rts(msg); break;
    case kCtlCts: proto_->on_cts(msg); break;
    default:
      NCS_UNREACHABLE("unknown NCS control message kind");
  }
}

}  // namespace ncs::mps
