#include "atm/cellmux.hpp"

#include <utility>

#include "common/assert.hpp"

namespace ncs::atm {

CellMux::CellMux(net::Link& link, CellSink& peer, int peer_port)
    : link_(link), peer_(peer), peer_port_(peer_port) {}

void CellMux::submit(Burst burst) {
  NCS_ASSERT(burst.n_cells > 0);
  ++stats_.bursts;
  if (!interleave_) {
    fifo_.push_back(std::move(burst));
  } else {
    Flow& flow = flows_[burst.vc];
    if (!flow.in_ring) {
      flow.in_ring = true;
      rr_order_.push_back(burst.vc);
    }
    if (flow.bursts.empty()) flow.cells_left_in_head = burst.n_cells;
    flow.bursts.push_back(std::move(burst));
  }
  pump();
}

CellMux::Flow* CellMux::next_flow() {
  // Sweep from rr_pos_, dropping drained VCs as they are encountered. The
  // ring (and the flow table) stay bounded by the set of *backlogged* VCs;
  // SVC churn — many short-lived VCs over the mux's lifetime — would
  // otherwise grow both without bound.
  std::size_t probes = rr_order_.size();
  while (probes-- > 0) {
    if (rr_pos_ >= rr_order_.size()) rr_pos_ = 0;
    auto it = flows_.find(rr_order_[rr_pos_]);
    NCS_ASSERT(it != flows_.end());
    Flow& flow = it->second;
    if (!flow.bursts.empty()) {
      rr_pos_ = (rr_pos_ + 1) % rr_order_.size();
      return &flow;
    }
    // Drained: leave the ring and the table; a new burst on this VC
    // re-registers it in submit(). rr_pos_ now indexes the next entry.
    NCS_ASSERT(flow.cells_left_in_head == 0);
    flows_.erase(it);
    rr_order_.erase(rr_order_.begin() + static_cast<std::ptrdiff_t>(rr_pos_));
  }
  return nullptr;
}

void CellMux::pump() {
  if (transmitting_) return;

  if (!interleave_) {
    if (fifo_.empty()) return;
    Burst burst = std::move(fifo_.front());
    fifo_.pop_front();
    transmitting_ = true;
    stats_.cells_sent += burst.n_cells;
    ++stats_.turns;
    link_.transmit(
        burst.wire_bytes(),
        [this] {
          transmitting_ = false;
          pump();
        },
        [this, b = std::move(burst)]() mutable { peer_.accept(peer_port_, std::move(b)); });
    return;
  }

  Flow* flow = next_flow();
  if (flow == nullptr) return;

  NCS_ASSERT(flow->cells_left_in_head > 0);
  --flow->cells_left_in_head;
  ++stats_.cells_sent;
  ++stats_.turns;
  const bool last_cell = flow->cells_left_in_head == 0;

  transmitting_ = true;
  sim::EventFn on_delivered;
  if (last_cell) {
    Burst finished = std::move(flow->bursts.front());
    flow->bursts.pop_front();
    if (!flow->bursts.empty()) flow->cells_left_in_head = flow->bursts.front().n_cells;
    on_delivered = [this, b = std::move(finished)]() mutable {
      peer_.accept(peer_port_, std::move(b));
    };
  }
  link_.transmit(Cell::kSize,
                 [this] {
                   transmitting_ = false;
                   pump();
                 },
                 std::move(on_delivered));
}

void CellMux::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  reg.counter(prefix + "/bursts", &stats_.bursts);
  reg.counter(prefix + "/cells_sent", &stats_.cells_sent);
  reg.counter(prefix + "/turns", &stats_.turns);
}

}  // namespace ncs::atm
