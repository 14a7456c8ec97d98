// ATM testbed topology: a chain of switch stars.
//
// Every testbed in the paper is a chain of FORE-style switch stars. Each
// host sits on a dedicated 140 Mbps TAXI link into its site's switch, and
// neighbouring site switches are joined by a SONET hop:
//
//   n_sites == 1  the "SUN/ATM LAN": one switch, no backbone.
//   n_sites == 2  NYNET (Fig 1): two site stars joined by one long-haul hop
//                 (DS-3 upstate-downstate by default) whose millisecond
//                 propagation is the term the paper's overlap argument
//                 targets.
//   n_sites >= 3  NYNET extrapolated for scale studies.
//
// Hosts split into contiguous, near-equal site blocks (the first
// n_hosts % n_sites sites take one extra host). PVCs are provisioned on
// three planes — data, one-sided RMA, NIC collectives — for every pair, or
// only for the pairs `provision` names. A host sends to host j on the
// plane's VCI base + j and receives from host i under base + i; the
// switches rewrite between the two. A path that crosses sites is
// label-switched hop by hop through the plane's backbone VPI. Labels are
// allocated per directed hop, so the 16-bit VCI space bounds the paths
// crossing any one hop: 65,536 per plane.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "atm/nic.hpp"
#include "atm/switch.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "sim/engine.hpp"

namespace ncs::atm {

inline constexpr std::uint16_t kVciBase = 64;

/// VC a host uses to send to host `dst`.
inline VcId vc_to(int dst) { return VcId{0, static_cast<std::uint16_t>(kVciBase + dst)}; }

/// Source host of a received chunk, from the delivered VC label.
inline int src_of(VcId vc) { return static_cast<int>(vc.vci) - static_cast<int>(kVciBase); }

/// One-sided RMA plane: a second PVC mesh, provisioned alongside the data
/// mesh with the same src/dst numbering shifted into a high VCI range
/// (clear of data VCs and of the signaling channel's dynamic labels, which
/// start at kDynamicVciBase = 1024 and assert-stop short of this base
/// rather than wrapping into it). The rma::Engine terminates these VCs
/// with Nic::set_vc_handler, the way the signaling agent terminates
/// VPI 0 / VCI 5 — so one-sided traffic never touches the receive thread.
inline constexpr std::uint16_t kRmaVciBase = 40000;

/// VC a host uses for one-sided operations targeting host `dst`; also the
/// label one-sided traffic *from* `dst` arrives on (switches rewrite
/// between the two, mirroring the data plane).
inline VcId rma_vc_to(int dst) {
  return VcId{0, static_cast<std::uint16_t>(kRmaVciBase + dst)};
}

/// Source host of a received one-sided chunk.
inline int rma_src_of(VcId vc) {
  return static_cast<int>(vc.vci) - static_cast<int>(kRmaVciBase);
}

/// NIC-collective plane: a third PVC mesh carrying combine/forward traffic
/// between adapter firmware instances (NicCollEngine). Sits below the RMA
/// range and above the signaling channel's dynamic labels, which
/// assert-stop short of this base. These VCs terminate in firmware — no
/// adapter->host DMA, no host upcall on interior tree hops.
inline constexpr std::uint16_t kCollVciBase = 38000;

/// VC a host's adapter uses for collective contributions/results sent to
/// host `dst`'s adapter; also the label such traffic *from* `dst` arrives
/// on (switches rewrite between the two, mirroring the data plane).
inline VcId coll_vc_to(int dst) {
  return VcId{0, static_cast<std::uint16_t>(kCollVciBase + dst)};
}

/// Source host of a received collective cell.
inline int coll_src_of(VcId vc) {
  return static_cast<int>(vc.vci) - static_cast<int>(kCollVciBase);
}

/// One PVC plane: its host-side VCI range and the VPI its paths take
/// across the backbone. Planes are provisioned in table order, each as its
/// own pass, so an earlier plane's labels never depend on a later one.
struct PvcPlane {
  const char* name;
  std::uint16_t vci_base;
  std::uint8_t backbone_vpi;
};
inline constexpr std::array<PvcPlane, 3> kPvcPlanes{{
    {"data", kVciBase, 1},
    {"rma", kRmaVciBase, 2},
    {"coll", kCollVciBase, 3},
}};

struct FabricConfig {
  int n_hosts = 4;
  /// Switch stars in the chain: 1 = LAN, 2 = NYNET.
  int n_sites = 1;
  NicParams nic;
  net::LinkParams host_link{
      .bandwidth_bps = bw::taxi_140,
      .propagation = Duration::microseconds(2),  // tens of meters of fiber
  };
  /// Per-hop inter-site SONET link. Default: DS-3 with upstate-downstate
  /// distance.
  net::LinkParams backbone{
      .bandwidth_bps = bw::ds3,
      .propagation = Duration::milliseconds(2.5),  // ~500 km of fiber
  };
  SwitchParams sw;
  /// Directed (src, dst) host pairs to provision PVCs for; duplicates and
  /// self pairs are ignored. Empty = full mesh, self routes included, which
  /// is only viable while every backbone hop carries at most 65,536 paths
  /// per plane — large topologies must name the traffic matrix.
  std::vector<std::pair<int, int>> provision;
};

/// N-host ATM fabric: the host-side API (NICs) the protocol stacks use,
/// plus the switch chain the signaling plane and fault injector reach.
class AtmFabric {
 public:
  /// Every NIC and switch reports to `obs`.
  AtmFabric(sim::Engine& engine, FabricConfig config, const obs::Hub& obs = obs::Hub::off());

  int n_hosts() const { return static_cast<int>(nics_.size()); }
  Nic& nic(int host) { return *nics_[static_cast<std::size_t>(host)]; }
  int n_sites() const { return static_cast<int>(switches_.size()); }
  int site_of(int host) const { return site_of_[static_cast<std::size_t>(host)]; }
  Switch& site_switch(int site) { return *switches_[static_cast<std::size_t>(site)]; }

  /// Port index of `host` on its site switch.
  int local_port(int host) const { return local_port_[static_cast<std::size_t>(host)]; }
  /// Port on `site`'s switch of the backbone hop leading toward `other`.
  int port_toward(int site, int other) const;
  /// True when `port` on `site`'s switch is a backbone hop, not a host.
  bool is_hop_port(int site, int port) const;

  /// Backbone labels consumed on the directed hop `hop` -> `hop+1` (or the
  /// reverse), summed over the planes — provisioning headroom introspection.
  int labels_used(int hop, bool rightward) const;

  /// Enumeration over the fabric's physical elements — how a FaultInjector
  /// reaches every link direction and switch without knowing the topology.
  void for_each_link(const std::function<void(net::Link&)>& fn) {
    for (auto& l : links_) {
      fn(l->forward());
      fn(l->backward());
    }
  }
  void for_each_switch(const std::function<void(Switch&)>& fn) {
    for (auto& s : switches_) fn(*s);
  }

 private:
  void provision_pair(int src, int dst, std::size_t plane);

  std::vector<int> site_of_;     // per host
  std::vector<int> local_port_;  // per host, port index on its site switch
  std::vector<int> left_port_;   // per site, port toward site-1 (-1 = none)
  std::vector<int> right_port_;  // per site, port toward site+1 (-1 = none)
  /// Next free backbone label per hop, direction (0 = rightward) and plane;
  /// hop h joins sites h and h+1.
  std::vector<std::array<std::array<std::uint32_t, kPvcPlanes.size()>, 2>> next_label_;
  std::vector<std::unique_ptr<net::DuplexLink>> links_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Switch>> switches_;
};

}  // namespace ncs::atm
