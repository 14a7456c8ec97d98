#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "obs/json.hpp"

namespace ncs::obs {

const char* to_string(Layer l) {
  switch (l) {
    case Layer::send_queue: return "send_queue";
    case Layer::flow_control: return "flow_control";
    case Layer::transport: return "transport";
    case Layer::network: return "network";
    case Layer::mailbox: return "mailbox";
    case Layer::end_to_end: return "end_to_end";
    case Layer::fc_stall: return "fc_stall";
    case Layer::retx_delay: return "retx_delay";
    case Layer::tx_buffer_stall: return "tx_buffer_stall";
    case Layer::nic_dma: return "nic_dma";
    case Layer::nic_sar: return "nic_sar";
    case Layer::wire: return "wire";
    case Layer::sched_dispatch: return "sched_dispatch";
    case Layer::coll: return "coll";
    case Layer::proto: return "proto";
    case Layer::rma: return "rma";
    case Layer::nic_coll: return "nic_coll";
  }
  return "?";
}

namespace {
// Stage indices into Live::t (wakeup folds immediately, so it has no slot).
enum Stage { kEnqueue = 0, kDequeue = 1, kAdmit = 2, kHandoff = 3, kDeliver = 4 };
}  // namespace

void Profiler::on_enqueue(const MsgKey& k, TimePoint t) {
  Live& live = live_[k];
  if ((live.have & (1u << kEnqueue)) != 0) return;  // seq collision: keep first
  live.t[kEnqueue] = t;
  live.have |= 1u << kEnqueue;
}

void Profiler::on_dequeue(const MsgKey& k, TimePoint t) {
  auto it = live_.find(k);
  if (it == live_.end() || (it->second.have & (1u << kDequeue)) != 0) return;
  it->second.t[kDequeue] = t;
  it->second.have |= 1u << kDequeue;
}

void Profiler::on_admit(const MsgKey& k, TimePoint t) {
  auto it = live_.find(k);
  if (it == live_.end() || (it->second.have & (1u << kAdmit)) != 0) return;
  it->second.t[kAdmit] = t;
  it->second.have |= 1u << kAdmit;
}

void Profiler::on_handoff(const MsgKey& k, TimePoint t) {
  auto it = live_.find(k);
  if (it == live_.end() || (it->second.have & (1u << kHandoff)) != 0) return;
  it->second.t[kHandoff] = t;
  it->second.have |= 1u << kHandoff;
}

void Profiler::on_deliver(const MsgKey& k, TimePoint t) {
  auto it = live_.find(k);
  if (it == live_.end() || (it->second.have & (1u << kDeliver)) != 0) return;
  it->second.t[kDeliver] = t;
  it->second.have |= 1u << kDeliver;
}

void Profiler::on_wakeup(const MsgKey& k, TimePoint wakeup) {
  auto it = live_.find(k);
  if (it == live_.end()) return;
  const Live& live = it->second;

  // Fold each leg whose endpoints were both stamped. The local-delivery
  // path collapses some stages onto the same instant; those legs record 0
  // and keep the partition property (legs sum to end_to_end).
  struct LegDef {
    Stage from;
    Stage to;
    Layer layer;
  };
  static constexpr LegDef kLegs[] = {
      {kEnqueue, kDequeue, Layer::send_queue},
      {kDequeue, kAdmit, Layer::flow_control},
      {kAdmit, kHandoff, Layer::transport},
      {kHandoff, kDeliver, Layer::network},
  };
  for (const LegDef& leg : kLegs) {
    if ((live.have & (1u << leg.from)) != 0 && (live.have & (1u << leg.to)) != 0)
      record(leg.layer, live.t[leg.to] - live.t[leg.from]);
  }
  if ((live.have & (1u << kDeliver)) != 0)
    record(Layer::mailbox, wakeup - live.t[kDeliver]);
  if ((live.have & (1u << kEnqueue)) != 0) {
    const Duration e2e = wakeup - live.t[kEnqueue];
    record(Layer::end_to_end, e2e);
    ++completed_;
    if (obs_->e2e_sketch != nullptr) obs_->e2e_sketch->record(wakeup, e2e);
    if (obs_->recorder != nullptr)
      obs_->recorder->note(k.to, FlightRecorder::EntryKind::stamp, wakeup, "e2e", k.from,
                           e2e.ps());
  }
  live_.erase(it);
}

void Profiler::write_json(JsonWriter& w) const {
  w.key("layers").begin_object();
  for (int i = 0; i < kLayerCount; ++i) {
    if (hist_[i].count() == 0) continue;
    w.key(to_string(static_cast<Layer>(i))).begin_object();
    hist_[i].write_json(w);
    w.end_object();
  }
  w.end_object();
  if (!coll_.empty()) {
    w.key("coll").begin_object();
    for (const auto& [key, hist] : coll_) {
      w.key(key).begin_object();
      hist.write_json(w);
      w.end_object();
    }
    w.end_object();
  }
  if (!proto_time_.empty() || !proto_count_.empty()) {
    w.key("proto").begin_object();
    for (const auto& [key, hist] : proto_time_) {
      w.key(key).begin_object();
      hist.write_json(w);
      w.end_object();
    }
    // Count-valued histograms (batch occupancy) have no time unit.
    for (const auto& [key, hist] : proto_count_) {
      w.key(key).begin_object();
      hist.write_json_raw(w);
      w.end_object();
    }
    w.end_object();
  }
  if (!rma_.empty()) {
    w.key("rma").begin_object();
    for (const auto& [key, hist] : rma_) {
      w.key(key).begin_object();
      hist.write_json(w);
      w.end_object();
    }
    w.end_object();
  }
  if (!core_.empty()) {
    w.key("cores").begin_object();
    for (const auto& [key, hist] : core_) {
      w.key(key).begin_object();
      hist.write_json(w);
      w.end_object();
    }
    w.end_object();
  }
  w.key("messages")
      .begin_object()
      .field("completed", completed_)
      .field("incomplete", incomplete())
      .end_object();
}

std::string Profiler::bottleneck_summary() const {
  const Histogram& e2e = hist(Layer::end_to_end);
  if (e2e.count() == 0) return "no completed messages profiled";

  char buf[128];
  std::snprintf(buf, sizeof buf, "p99 end-to-end %.1f us over %llu messages:",
                static_cast<double>(e2e.quantile(0.99)) * 1e-6,
                static_cast<unsigned long long>(e2e.count()));
  std::string out = buf;

  static constexpr Layer kPath[] = {Layer::send_queue, Layer::flow_control, Layer::transport,
                                    Layer::network, Layer::mailbox};
  struct Share {
    Layer layer;
    double frac;
  };
  std::vector<Share> shares;
  const auto total = static_cast<double>(e2e.sum());
  for (Layer l : kPath) {
    if (hist(l).sum() > 0 && total > 0.0)
      shares.push_back({l, static_cast<double>(hist(l).sum()) / total});
  }
  std::sort(shares.begin(), shares.end(),
            [](const Share& a, const Share& b) { return a.frac > b.frac; });
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s %s %.0f%%", i == 0 ? "" : ",",
                  to_string(shares[i].layer), shares[i].frac * 100.0);
    out += buf;
  }
  if (shares.empty()) out += " (all legs empty)";
  return out;
}

std::vector<ThreadUsage> fold_threads(const sim::Timeline& tl) {
  std::vector<ThreadUsage> out;
  out.reserve(static_cast<std::size_t>(tl.track_count()));
  for (int k = 0; k < tl.track_count(); ++k) {
    ThreadUsage u;
    u.track = tl.track_name(k);
    const auto& ivs = tl.intervals(k);
    for (const auto& iv : ivs)
      u.per_activity[static_cast<int>(iv.activity)] += iv.end - iv.begin;
    if (!ivs.empty()) u.span = ivs.back().end - ivs.front().begin;
    out.push_back(std::move(u));
  }
  return out;
}

std::vector<HostUsage> fold_hosts(const sim::Timeline& tl) {
  struct Edge {
    std::int64_t t_ps;
    int activity;
    int delta;  // +1 open, -1 close
  };
  struct Group {
    std::string host;
    std::vector<Edge> edges;
  };
  std::vector<Group> groups;
  auto group_of = [&groups](const std::string& host) -> Group& {
    for (Group& g : groups)
      if (g.host == host) return g;
    groups.push_back({host, {}});
    return groups.back();
  };

  for (int k = 0; k < tl.track_count(); ++k) {
    const std::string& name = tl.track_name(k);
    const auto slash = name.find('/');
    Group& g = group_of(slash == std::string::npos ? name : name.substr(0, slash));
    for (const auto& iv : tl.intervals(k)) {
      g.edges.push_back({iv.begin.ps(), static_cast<int>(iv.activity), +1});
      g.edges.push_back({iv.end.ps(), static_cast<int>(iv.activity), -1});
    }
  }

  std::vector<HostUsage> out;
  for (Group& g : groups) {
    HostUsage u;
    u.host = g.host;
    if (g.edges.empty()) {
      out.push_back(std::move(u));
      continue;
    }
    // Closes sort before opens at equal times so zero-width touching
    // intervals don't create spurious concurrency.
    std::sort(g.edges.begin(), g.edges.end(), [](const Edge& a, const Edge& b) {
      if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
      return a.delta < b.delta;
    });
    int open[4] = {};
    std::int64_t prev = g.edges.front().t_ps;
    const std::int64_t first = prev;
    for (const Edge& e : g.edges) {
      const Duration seg = Duration::picoseconds(e.t_ps - prev);
      if (!seg.is_zero()) {
        const bool comp = open[static_cast<int>(sim::Activity::compute)] > 0;
        const bool comm = open[static_cast<int>(sim::Activity::communicate)] > 0;
        const bool ovhd = open[static_cast<int>(sim::Activity::overhead)] > 0;
        if (comp) u.compute += seg;
        if (comm) u.communicate += seg;
        if (ovhd) u.overhead += seg;
        if (comp && comm) u.overlapped += seg;
        if (!comp && !comm && !ovhd) u.idle += seg;
      }
      open[e.activity] += e.delta;
      prev = e.t_ps;
    }
    u.span = Duration::picoseconds(prev - first);
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace ncs::obs
