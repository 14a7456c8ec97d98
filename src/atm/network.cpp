#include "atm/network.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace ncs::atm {

AtmFabric::AtmFabric(sim::Engine& engine, FabricConfig config, const obs::Hub& obs) {
  const int n_sites = config.n_sites;
  NCS_ASSERT(config.n_hosts >= 1);
  NCS_ASSERT(n_sites >= 1 && n_sites <= config.n_hosts);

  // Contiguous near-equal host blocks: the first (n_hosts % n_sites) sites
  // take one extra host.
  const int base = config.n_hosts / n_sites;
  const int extra = config.n_hosts % n_sites;
  std::vector<int> n_local(static_cast<std::size_t>(n_sites));
  for (int s = 0; s < n_sites; ++s)
    n_local[static_cast<std::size_t>(s)] = base + (s < extra ? 1 : 0);

  for (int s = 0; s < n_sites; ++s)
    switches_.push_back(std::make_unique<Switch>(
        engine, config.sw, n_sites == 1 ? "lan-switch" : "wan-switch" + std::to_string(s),
        obs));
  left_port_.assign(static_cast<std::size_t>(n_sites), -1);
  right_port_.assign(static_cast<std::size_t>(n_sites), -1);
  next_label_.resize(static_cast<std::size_t>(n_sites - 1));

  // Host ports first, so every site's hop ports start at n_local(site).
  int site = 0, filled = 0;
  for (int i = 0; i < config.n_hosts; ++i) {
    if (filled == n_local[static_cast<std::size_t>(site)]) {
      ++site;
      filled = 0;
    }
    site_of_.push_back(site);
    local_port_.push_back(filled++);
    const auto ui = static_cast<std::size_t>(i);
    links_.push_back(std::make_unique<net::DuplexLink>(engine, config.host_link,
                                                       "taxi" + std::to_string(i)));
    nics_.push_back(std::make_unique<Nic>(engine, config.nic, "nic" + std::to_string(i), obs));
    // The switch port transmits down the link toward the NIC; the NIC
    // transmits up the link, arriving tagged with the same port index.
    Switch& sw = *switches_[static_cast<std::size_t>(site)];
    const int port = sw.add_port(links_[ui]->backward(), *nics_[ui], 0);
    NCS_ASSERT(port == local_port_[ui]);
    nics_[ui]->attach(links_[ui]->forward(), sw, port);
  }

  // Chain hops, left to right. Processing in order guarantees site s's left
  // port (added by hop s-1) exists before its right port, so port indices
  // are n_local(s) for the left hop and n_local(s)+1 for the right.
  for (int h = 0; h + 1 < n_sites; ++h) {
    const auto uh = static_cast<std::size_t>(h);
    links_.push_back(std::make_unique<net::DuplexLink>(
        engine, config.backbone, n_sites == 2 ? "sonet" : "sonet" + std::to_string(h)));
    net::DuplexLink& bb = *links_.back();
    Switch& left = *switches_[uh];
    Switch& right = *switches_[uh + 1];
    // The right switch's left port index is known before add_port: host
    // ports only, since its own right port (hop h+1) is not added yet.
    const int right_in = n_local[uh + 1];
    right_port_[uh] = left.add_port(bb.forward(), right, right_in);
    left_port_[uh + 1] = right.add_port(bb.backward(), left, right_port_[uh]);
    NCS_ASSERT(left_port_[uh + 1] == right_in);
  }

  std::vector<std::pair<int, int>> pairs;
  if (config.provision.empty()) {
    for (int i = 0; i < config.n_hosts; ++i)
      for (int j = 0; j < config.n_hosts; ++j) pairs.emplace_back(i, j);
  } else {
    std::sort(config.provision.begin(), config.provision.end());
    config.provision.erase(
        std::unique(config.provision.begin(), config.provision.end()),
        config.provision.end());
    for (const auto& [i, j] : config.provision) {
      NCS_ASSERT(i >= 0 && i < config.n_hosts && j >= 0 && j < config.n_hosts);
      if (i != j) pairs.emplace_back(i, j);
    }
  }
  for (std::size_t plane = 0; plane < kPvcPlanes.size(); ++plane)
    for (const auto& [i, j] : pairs) provision_pair(i, j, plane);
}

void AtmFabric::provision_pair(int src, int dst, std::size_t plane) {
  const PvcPlane& p = kPvcPlanes[plane];
  const int si = site_of(src);
  const int sj = site_of(dst);
  const VcId dst_vc{0, static_cast<std::uint16_t>(p.vci_base + dst)};
  const VcId src_vc{0, static_cast<std::uint16_t>(p.vci_base + src)};

  // One fresh label per directed hop the path crosses; each switch along
  // the way rewrites the previous hop's label into the next one.
  VcId prev = dst_vc;
  int in_port = local_port(src);
  for (int s = si; s != sj;) {
    const bool rightward = sj > s;
    const int next = rightward ? s + 1 : s - 1;
    const int hop = std::min(s, next);
    std::uint32_t& label =
        next_label_[static_cast<std::size_t>(hop)][rightward ? 0 : 1][plane];
    NCS_ASSERT_MSG(label <= 0xFFFF,
                   ("backbone hop " + std::to_string(hop) +
                    (rightward ? " rightward" : " leftward") + " is out of " + p.name +
                    "-plane labels (65536 per hop); provision fewer pairs")
                       .c_str());
    const VcId lab{p.backbone_vpi, static_cast<std::uint16_t>(label++)};
    site_switch(s).add_route(in_port, prev, port_toward(s, next), lab);
    prev = lab;
    in_port = port_toward(next, s);
    s = next;
  }
  site_switch(sj).add_route(in_port, prev, local_port(dst), src_vc);
}

int AtmFabric::port_toward(int site, int other) const {
  NCS_ASSERT(other != site);
  const auto us = static_cast<std::size_t>(site);
  return other > site ? right_port_[us] : left_port_[us];
}

bool AtmFabric::is_hop_port(int site, int port) const {
  const auto us = static_cast<std::size_t>(site);
  return port == left_port_[us] || port == right_port_[us];
}

int AtmFabric::labels_used(int hop, bool rightward) const {
  int used = 0;
  for (const std::uint32_t next : next_label_[static_cast<std::size_t>(hop)][rightward ? 0 : 1])
    used += static_cast<int>(next);
  return used;
}

}  // namespace ncs::atm
