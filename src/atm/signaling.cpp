#include "atm/signaling.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace ncs::atm {

namespace {

/// Small signaling PDUs are submitted as soon as a TX buffer frees; the
/// agent runs on engine events, so it queues instead of blocking.
void submit_when_free(sim::Engine& engine, Nic& nic, VcId vc, Bytes pdu) {
  if (nic.tx_buffer_available()) {
    nic.submit_tx(vc, std::move(pdu), /*end_of_message=*/true);
    return;
  }
  // Capture by value; retry on the buffer-free notification.
  nic.notify_tx_buffer([&engine, &nic, vc, p = std::move(pdu)]() mutable {
    submit_when_free(engine, nic, vc, std::move(p));
  });
}

}  // namespace

Bytes SignalingMessage::encode() const {
  Bytes out(1 + 4 + 4 + 4 + 2 * 3);
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(call_ref);
  w.u32(static_cast<std::uint32_t>(calling_party));
  w.u32(static_cast<std::uint32_t>(called_party));
  w.u8(assigned_vc.vpi);
  w.u16(assigned_vc.vci);
  w.u8(peer_vc.vpi);
  w.u16(peer_vc.vci);
  return out;
}

Result<SignalingMessage> SignalingMessage::decode(BytesView wire) {
  if (wire.size() < 19) return Status(ErrorCode::data_corruption, "short signaling PDU");
  ByteReader r(wire);
  SignalingMessage m;
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 5) return Status(ErrorCode::data_corruption, "bad signaling type");
  m.type = static_cast<SignalingMessageType>(t);
  m.call_ref = r.u32();
  m.calling_party = static_cast<int>(r.u32());
  m.called_party = static_cast<int>(r.u32());
  m.assigned_vc.vpi = r.u8();
  m.assigned_vc.vci = r.u16();
  m.peer_vc.vpi = r.u8();
  m.peer_vc.vci = r.u16();
  return m;
}

SignalingAgent::SignalingAgent(sim::Engine& engine, Nic& nic, int host_index)
    : engine_(engine), nic_(nic), host_(host_index) {
  nic_.set_vc_handler(kSignalingVc, [this](VcId, Bytes data, bool) {
    on_signaling_pdu(data);
  });
}

void SignalingAgent::send(const SignalingMessage& msg) {
  submit_when_free(engine_, nic_, kSignalingVc, msg.encode());
}

void SignalingAgent::open_call(int called_party, ConnectHandler on_complete) {
  NCS_ASSERT(on_complete != nullptr);
  SignalingMessage msg;
  msg.type = SignalingMessageType::setup;
  msg.call_ref = next_call_ref_++;
  msg.calling_party = host_;
  msg.called_party = called_party;
  pending_.emplace(msg.call_ref, std::move(on_complete));
  ++stats_.calls_opened;
  send(msg);
}

void SignalingAgent::release_call(VcId data_vc) {
  SignalingMessage msg;
  msg.type = SignalingMessageType::release;
  msg.calling_party = host_;
  msg.assigned_vc = data_vc;
  ++stats_.releases;
  send(msg);
}

std::optional<VcId> SignalingAgent::accepted_vc_from(int calling_party) const {
  const auto it = accepted_.find(calling_party);
  if (it == accepted_.end()) return std::nullopt;
  return it->second;
}

void SignalingAgent::on_signaling_pdu(BytesView wire) {
  const auto decoded = SignalingMessage::decode(wire);
  if (!decoded.is_ok()) {
    NCS_WARN("atm.sig", "host %d: dropping malformed signaling PDU", host_);
    return;
  }
  const SignalingMessage& msg = decoded.value();

  switch (msg.type) {
    case SignalingMessageType::setup: {
      // Incoming call offer (relayed by the controller).
      const bool accept = !incoming_filter_ || incoming_filter_(msg.calling_party);
      SignalingMessage reply = msg;
      reply.type = accept ? SignalingMessageType::connect : SignalingMessageType::reject;
      if (accept) {
        ++stats_.calls_accepted;
        accepted_[msg.calling_party] = msg.assigned_vc;  // my tx label
      } else {
        ++stats_.calls_rejected;
      }
      send(reply);
      return;
    }
    case SignalingMessageType::connect: {
      const auto it = pending_.find(msg.call_ref);
      if (it == pending_.end()) return;
      ConnectHandler handler = std::move(it->second);
      pending_.erase(it);
      handler(Result<VcId>(msg.assigned_vc));
      return;
    }
    case SignalingMessageType::reject: {
      const auto it = pending_.find(msg.call_ref);
      if (it == pending_.end()) return;
      ConnectHandler handler = std::move(it->second);
      pending_.erase(it);
      handler(Result<VcId>(Status(ErrorCode::failed_precondition, "call rejected by callee")));
      return;
    }
    case SignalingMessageType::release:
    case SignalingMessageType::release_complete:
      // Peer or network released; forget any matching accepted call.
      for (auto it = accepted_.begin(); it != accepted_.end(); ++it) {
        if (it->second == msg.assigned_vc || it->second == msg.peer_vc) {
          accepted_.erase(it);
          break;
        }
      }
      // Let the data plane invalidate any circuit cache keyed on either
      // label (the caller's tx label rides in assigned_vc).
      if (release_handler_) release_handler_(msg.assigned_vc, msg.peer_vc);
      return;
  }
}

CallController::CallController(sim::Engine& engine, AtmFabric& fabric)
    : engine_(engine), fabric_(fabric) {
  for (int site = 0; site < fabric_.n_sites(); ++site) {
    Switch& sw = fabric_.site_switch(site);
    sw.add_local_endpoint(kSignalingVc, [this, site](int in_port, Burst burst) {
      const auto decoded = SignalingMessage::decode(burst.payload);
      if (!decoded.is_ok()) {
        NCS_WARN("atm.sig", "site %d: dropping malformed signaling PDU from port %d", site,
                 in_port);
        return;
      }
      on_signaling(site, in_port, decoded.value());
    });
    // Signaling always tracks the fabric's health: a dead port releases the
    // circuits through it so callers can re-establish after recovery.
    sw.fault().subscribe([this, site](int port, bool down) {
      if (down) {
        fail_port(site, port);
      } else {
        restore_port(site, port);
      }
    });
  }
}

void CallController::for_each_hop(int caller, int callee,
                                  const std::function<void(int, int, int)>& fn) const {
  const int last = fabric_.site_of(callee);
  int site = fabric_.site_of(caller);
  int in_port = fabric_.local_port(caller);
  for (;;) {
    if (site == last) {
      fn(site, in_port, fabric_.local_port(callee));
      return;
    }
    const int next = site < last ? site + 1 : site - 1;
    fn(site, in_port, fabric_.port_toward(site, next));
    in_port = fabric_.port_toward(next, site);
    site = next;
  }
}

bool CallController::path_touches(int caller, int callee,
                                  const std::set<std::pair<int, int>>& ports) const {
  bool hit = false;
  for_each_hop(caller, callee, [&](int site, int in_port, int out_port) {
    hit = hit || ports.contains({site, in_port}) || ports.contains({site, out_port});
  });
  return hit;
}

void CallController::release_call_faulted(const Call& call) {
  if (call.connected) {
    remove_call_routes(call);
    by_vc_.erase(call.caller_vc);
    by_vc_.erase(call.callee_vc);
    --stats_.active_calls;
  }
  ++stats_.faulted_releases;
  SignalingMessage note;
  note.call_ref = call.call_ref;
  note.calling_party = call.caller;
  note.assigned_vc = call.caller_vc;
  note.peer_vc = call.callee_vc;
  // Each party hears it from its own site switch; one behind the dead port
  // won't (the switch eats the PDU), matching reality. A caller the CONNECT
  // has not reached still waits on its SETUP, so it gets the REJECT it can
  // match; a CONNECT still crossing the backbone then finds nothing pending.
  for (const int party : {call.caller, call.callee}) {
    note.type = party == call.caller && !call.caller_knows
                    ? SignalingMessageType::reject
                    : SignalingMessageType::release_complete;
    note.called_party = party;  // explicit destination for transit hops
    route_to_host(fabric_.site_of(party), party, note);
  }
}

void CallController::fail_port(int site, int port) {
  if (!failed_ports_.insert({site, port}).second) return;
  NCS_INFO("atm.sig", "call controller: site %d port %d failed, releasing its calls", site,
           port);
  for (auto it = calls_.begin(); it != calls_.end();) {
    const Call call = it->second;
    if (path_touches(call.caller, call.callee, {{site, port}})) {
      it = calls_.erase(it);
      release_call_faulted(call);
    } else {
      ++it;
    }
  }
}

void CallController::restore_port(int site, int port) { failed_ports_.erase({site, port}); }

SignalingAgent& CallController::agent(int host) {
  auto it = agents_.find(host);
  if (it == agents_.end()) {
    it = agents_
             .emplace(host,
                      std::make_unique<SignalingAgent>(engine_, fabric_.nic(host), host))
             .first;
  }
  return *it->second;
}

VcId CallController::allocate_vc() {
  // Dynamic labels must stay below every reserved PVC plane. The NIC
  // collective-context range (kCollVciBase) now sits *under* the RMA range,
  // so guarding against kRmaVciBase alone would let SVC churn silently
  // splice call labels into live firmware combine contexts.
  static_assert(kCollVciBase < kRmaVciBase);
  NCS_ASSERT_MSG(next_vci_ < kCollVciBase, "dynamic VCI space exhausted");
  return VcId{0, next_vci_++};
}

void CallController::install_call_routes(const Call& call) {
  // Label continuity: the same label on every hop, (in, caller_vc) ->
  // (out, caller_vc) and the mirror for the callee's transmit label.
  for_each_hop(call.caller, call.callee, [&](int site, int in_port, int out_port) {
    Switch& sw = fabric_.site_switch(site);
    sw.add_route(in_port, call.caller_vc, out_port, call.caller_vc);
    sw.add_route(out_port, call.callee_vc, in_port, call.callee_vc);
  });
}

void CallController::remove_call_routes(const Call& call) {
  for_each_hop(call.caller, call.callee, [&](int site, int in_port, int out_port) {
    Switch& sw = fabric_.site_switch(site);
    sw.remove_route(in_port, call.caller_vc);
    sw.remove_route(out_port, call.callee_vc);
  });
}

void CallController::route_to_host(int site, int host, const SignalingMessage& msg) {
  const int target = fabric_.site_of(host);
  int port = fabric_.local_port(host);
  if (target != site) {
    // Transit the backbone: the next switch's local endpoint re-enters
    // on_signaling with in_port == its hop port and relays onward.
    ++stats_.backbone_hops;
    port = fabric_.port_toward(site, target);
  }
  Burst burst;
  burst.vc = kSignalingVc;
  burst.payload = msg.encode();
  burst.n_cells = static_cast<std::uint32_t>(aal5::cell_count(burst.payload.size()));
  burst.end_of_message = true;
  fabric_.site_switch(site).send_local(port, std::move(burst));
}

void CallController::on_signaling(int site, int in_port, const SignalingMessage& msg) {
  // A message entering from a backbone hop is in transit toward its
  // destination host; host-originated messages drive the call state.
  if (fabric_.is_hop_port(site, in_port)) {
    switch (msg.type) {
      case SignalingMessageType::setup:
      case SignalingMessageType::release_complete:
        route_to_host(site, msg.called_party, msg);
        return;
      case SignalingMessageType::connect:
        if (site == fabric_.site_of(msg.calling_party)) {
          const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
          if (it != calls_.end()) it->second.caller_knows = true;
        }
        route_to_host(site, msg.calling_party, msg);
        return;
      case SignalingMessageType::reject:
        route_to_host(site, msg.calling_party, msg);
        return;
      case SignalingMessageType::release:
        return;  // teardown is driven at first entry
    }
  }

  switch (msg.type) {
    case SignalingMessageType::setup: {
      ++stats_.setups;
      if (msg.called_party < 0 || msg.called_party >= fabric_.n_hosts() ||
          path_touches(msg.calling_party, msg.called_party, failed_ports_)) {
        // Unknown party — or a known one behind a failed port, where the
        // offer could never be delivered: reject instead of letting the
        // caller hang on a SETUP with no answer.
        SignalingMessage reject = msg;
        reject.type = SignalingMessageType::reject;
        route_to_host(site, msg.calling_party, reject);
        ++stats_.rejects;
        return;
      }
      Call call{msg.call_ref, msg.calling_party, msg.called_party, allocate_vc(),
                allocate_vc()};
      calls_.emplace(std::make_pair(call.caller, call.call_ref), call);
      // Offer to the callee, telling it which label it would transmit on
      // and which label the caller's traffic will arrive under.
      SignalingMessage offer = msg;
      offer.assigned_vc = call.callee_vc;
      offer.peer_vc = call.caller_vc;
      route_to_host(site, call.callee, offer);
      return;
    }
    case SignalingMessageType::connect: {
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      Call& call = it->second;
      NCS_ASSERT(site == fabric_.site_of(call.callee) &&
                 in_port == fabric_.local_port(call.callee));
      call.connected = true;
      install_call_routes(call);
      by_vc_[call.caller_vc] = it->first;
      by_vc_[call.callee_vc] = it->first;
      ++stats_.connects;
      ++stats_.active_calls;
      // Tell the caller its transmit label and the label to expect.
      SignalingMessage connect = msg;
      connect.assigned_vc = call.caller_vc;
      connect.peer_vc = call.callee_vc;
      call.caller_knows = site == fabric_.site_of(call.caller);
      route_to_host(site, call.caller, connect);
      return;
    }
    case SignalingMessageType::reject: {
      const auto it = calls_.find(std::make_pair(msg.calling_party, msg.call_ref));
      if (it == calls_.end()) return;
      ++stats_.rejects;
      route_to_host(site, it->second.caller, msg);
      calls_.erase(it);
      return;
    }
    case SignalingMessageType::release: {
      const auto vit = by_vc_.find(msg.assigned_vc);
      if (vit == by_vc_.end()) return;
      const auto cit = calls_.find(vit->second);
      NCS_ASSERT(cit != calls_.end());
      const Call call = cit->second;
      remove_call_routes(call);
      by_vc_.erase(call.caller_vc);
      by_vc_.erase(call.callee_vc);
      calls_.erase(cit);
      ++stats_.releases;
      --stats_.active_calls;
      // Notify both parties.
      for (const int party : {call.caller, call.callee}) {
        SignalingMessage note = msg;
        note.type = SignalingMessageType::release_complete;
        note.called_party = party;  // explicit destination for transit hops
        note.assigned_vc = call.caller_vc;
        note.peer_vc = call.callee_vc;
        route_to_host(site, party, note);
      }
      return;
    }
    case SignalingMessageType::release_complete:
      return;  // host-side only
  }
}

}  // namespace ncs::atm
