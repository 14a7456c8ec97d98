// The switch-chain fabric. Suites are named after the testbed a case
// models: AtmLan (one site), AtmWan (two), AtmMultiWan (three or more).
#include "atm/network.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ncs::atm {
namespace {

using namespace ncs::literals;

struct Delivery {
  int to;
  int from;
  Bytes data;
  TimePoint at;
};

Bytes tagged_payload(int tag, std::size_t n = 100) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i + static_cast<std::size_t>(tag));
  return b;
}

/// Records every delivery; the source host is decoded under the VCI base
/// of the plane the traffic rides.
void wire_up(sim::Engine& engine, AtmFabric& fab, std::vector<Delivery>* sink,
             std::uint16_t vci_base = kVciBase) {
  for (int h = 0; h < fab.n_hosts(); ++h) {
    fab.nic(h).set_rx_handler([&engine, sink, h, vci_base](VcId vc, Bytes data, bool) {
      sink->push_back({h, vc.vci - vci_base, std::move(data), engine.now()});
    });
  }
}

TEST(VcNumbering, RoundTrip) {
  for (int dst : {0, 1, 7, 100}) EXPECT_EQ(src_of(vc_to(dst)), dst);
}

// --- every plane, every chain length, full mesh and sparse ----------------

struct MeshCase {
  int sites;
  bool sparse;
  std::size_t plane;  // index into kPvcPlanes
};

std::string case_name(const MeshCase& c) {
  return "sites" + std::to_string(c.sites) + (c.sparse ? "_sparse_" : "_full_") +
         kPvcPlanes[c.plane].name;
}

void PrintTo(const MeshCase& c, std::ostream* os) { *os << case_name(c); }

class FabricMesh : public ::testing::TestWithParam<MeshCase> {};

TEST_P(FabricMesh, AllPairsDeliverExactlyOnce) {
  constexpr int kHosts = 9;
  const MeshCase c = GetParam();
  const PvcPlane& plane = kPvcPlanes[c.plane];
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = kHosts;
  cfg.n_sites = c.sites;
  cfg.nic.tx_buffers = 16;  // room for the 8 back-to-back submits per host
  // Sparse: each host reaches its ring successor and the host four ahead,
  // which includes multi-hop paths in both directions on three sites.
  const auto named = [](int i, int j) {
    const int ahead = (j - i + kHosts) % kHosts;
    return ahead == 1 || ahead == 4;
  };
  if (c.sparse)
    for (int i = 0; i < kHosts; ++i)
      for (int j = 0; j < kHosts; ++j)
        if (named(i, j)) cfg.provision.emplace_back(i, j);
  AtmFabric fab(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, fab, &rx, plane.vci_base);

  const auto vc = [&](int dst) {
    return VcId{0, static_cast<std::uint16_t>(plane.vci_base + dst)};
  };
  int sent = 0;
  for (int i = 0; i < kHosts; ++i)
    for (int j = 0; j < kHosts; ++j)
      if (i != j && (!c.sparse || named(i, j))) {
        fab.nic(i).submit_tx(vc(j), tagged_payload(i * kHosts + j), true);
        ++sent;
      }
  engine.run();

  ASSERT_EQ(rx.size(), static_cast<std::size_t>(sent));
  std::map<std::pair<int, int>, int> seen;
  std::map<int, TimePoint> earliest;  // by backbone hops crossed
  const Duration prop = cfg.backbone.propagation;
  for (const auto& d : rx) {
    ++seen[{d.from, d.to}];
    EXPECT_EQ(d.data, tagged_payload(d.from * kHosts + d.to));
    const int hops = std::abs(fab.site_of(d.from) - fab.site_of(d.to));
    EXPECT_GE(d.at - TimePoint::origin(), prop * hops) << d.from << "->" << d.to;
    if (!earliest.contains(hops) || d.at < earliest[hops]) earliest[hops] = d.at;
  }
  for (const auto& [k, v] : seen) EXPECT_EQ(v, 1) << k.first << "->" << k.second;
  // Each hop adds one backbone propagation, not more.
  EXPECT_EQ(static_cast<int>(earliest.size()), c.sites);
  for (const auto& [hops, at] : earliest)
    EXPECT_NEAR((at - earliest[0]).ms(), prop.ms() * hops, prop.ms() * 0.25) << hops;

  // A sparse fabric routes nothing it was not told to.
  if (c.sparse) {
    Switch& sw = fab.site_switch(fab.site_of(0));
    const auto unroutable = sw.stats().unroutable;
    fab.nic(0).submit_tx(vc(2), tagged_payload(2), true);
    engine.run();
    EXPECT_EQ(sw.stats().unroutable, unroutable + 1);
    EXPECT_EQ(rx.size(), static_cast<std::size_t>(sent));
  }
}

std::vector<MeshCase> mesh_cases() {
  std::vector<MeshCase> cases;
  for (const int sites : {1, 2, 3})
    for (const bool sparse : {false, true})
      for (std::size_t plane = 0; plane < kPvcPlanes.size(); ++plane)
        cases.push_back({sites, sparse, plane});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Chains, FabricMesh, ::testing::ValuesIn(mesh_cases()),
                         [](const auto& p) { return case_name(p.param); });

// --- backbone label capacity ------------------------------------------------

TEST(AtmWan, FullMeshAt512HostsFillsEveryBackboneLabel) {
  // 256 x 256 cross-site pairs per direction: exactly the 65,536 labels a
  // hop holds per plane.
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 512;
  cfg.n_sites = 2;
  AtmFabric wan(engine, cfg);
  const int full = 65536 * static_cast<int>(kPvcPlanes.size());
  EXPECT_EQ(wan.labels_used(0, /*rightward=*/true), full);
  EXPECT_EQ(wan.labels_used(0, /*rightward=*/false), full);

  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);
  // The last data-plane pair in each direction took label 65535.
  wan.nic(255).submit_tx(vc_to(511), tagged_payload(1), true);
  wan.nic(511).submit_tx(vc_to(255), tagged_payload(2), true);
  engine.run();
  ASSERT_EQ(rx.size(), 2u);
}

TEST(AtmWanDeathTest, FullMeshAt513HostsStopsAtTheLabelCapacity) {
  // 257 x 256 pairs cross hop 0 rightward: the data plane runs out first.
  FabricConfig cfg;
  cfg.n_hosts = 513;
  cfg.n_sites = 2;
  EXPECT_DEATH(
      {
        sim::Engine engine;
        AtmFabric wan(engine, cfg);
      },
      "backbone hop 0 rightward is out of data-plane labels");
}

TEST(AtmLan, DedicatedLinksDoNotContend) {
  // Two disjoint pairs transfer simultaneously; each takes the same time
  // as it would alone — unlike shared Ethernet.
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 4;

  const auto solo = [&] {
    sim::Engine e2;
    AtmFabric lan(e2, cfg);
    std::vector<Delivery> rx;
    wire_up(e2, lan, &rx);
    lan.nic(0).submit_tx(vc_to(1), tagged_payload(0, 4000), true);
    e2.run();
    return rx.at(0).at - TimePoint::origin();
  }();

  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  lan.nic(0).submit_tx(vc_to(1), tagged_payload(0, 4000), true);
  lan.nic(2).submit_tx(vc_to(3), tagged_payload(0, 4000), true);
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  for (const auto& d : rx) EXPECT_EQ((d.at - TimePoint::origin()).ps(), solo.ps());
}

TEST(AtmLan, SelfSendLoopsThroughSwitch) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 2;
  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  lan.nic(0).submit_tx(vc_to(0), tagged_payload(5), true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].from, 0);
  EXPECT_EQ(rx[0].to, 0);
}

TEST(AtmWan, CrossSiteDeliveryPaysBackbonePropagation) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_sites = 2;
  cfg.n_hosts = 4;  // hosts 0,1 at site 0; 2,3 at site 1
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  wan.nic(0).submit_tx(vc_to(1), tagged_payload(1), true);  // same site
  wan.nic(0).submit_tx(vc_to(2), tagged_payload(2), true);  // cross site
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  TimePoint local, remote;
  for (const auto& d : rx) (d.to == 1 ? local : remote) = d.at;
  // The cross-site delivery pays at least the extra backbone propagation.
  EXPECT_GT((remote - local).ms(), cfg.backbone.propagation.ms() * 0.9);
}

TEST(AtmWan, SiteAssignment) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_sites = 2;
  cfg.n_hosts = 5;
  AtmFabric wan(engine, cfg);
  EXPECT_EQ(wan.site_of(0), 0);
  EXPECT_EQ(wan.site_of(2), 0);  // ceil(5/2)=3 hosts at site 0
  EXPECT_EQ(wan.site_of(3), 1);
  EXPECT_EQ(wan.site_of(4), 1);
}

TEST(AtmMultiWan, HostsSplitIntoContiguousNearEqualSites) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 7;
  cfg.n_sites = 3;
  cfg.provision = {{0, 1}};  // keep construction cheap
  AtmFabric wan(engine, cfg);
  // 7 hosts over 3 sites: 3 + 2 + 2.
  EXPECT_EQ(wan.site_of(0), 0);
  EXPECT_EQ(wan.site_of(2), 0);
  EXPECT_EQ(wan.site_of(3), 1);
  EXPECT_EQ(wan.site_of(4), 1);
  EXPECT_EQ(wan.site_of(5), 2);
  EXPECT_EQ(wan.site_of(6), 2);
}

TEST(AtmMultiWan, EachHopAddsBackbonePropagation) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 4;  // one host per site
  cfg.n_sites = 4;
  cfg.provision = {{0, 1}, {0, 3}};
  AtmFabric wan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);

  wan.nic(0).submit_tx(vc_to(1), tagged_payload(1), true);  // 1 hop
  wan.nic(0).submit_tx(vc_to(3), tagged_payload(3), true);  // 3 hops
  engine.run();

  ASSERT_EQ(rx.size(), 2u);
  TimePoint near, far;
  for (const auto& d : rx) (d.to == 1 ? near : far) = d.at;
  // Two extra hops: at least 2x extra backbone propagation.
  EXPECT_GT((far - near).ms(), cfg.backbone.propagation.ms() * 1.9);
}

TEST(AtmMultiWan, SparseProvisioningBoundsTheLabelSpace) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 64;
  cfg.n_sites = 4;  // 16 hosts per site
  // Ring traffic matrix: i -> (i+1) % n, both directions of each hop pair.
  for (int i = 0; i < cfg.n_hosts; ++i) {
    cfg.provision.emplace_back(i, (i + 1) % cfg.n_hosts);
    cfg.provision.emplace_back((i + 1) % cfg.n_hosts, i);
  }
  cfg.provision.emplace_back(0, 1);  // duplicates are tolerated
  AtmFabric wan(engine, cfg);

  // Only the ring crossings consume hop labels: of 128 directed pairs, the
  // vast majority are intra-site. Hop 0 carries 15->16 rightward, 16->15
  // leftward, plus the 63->0 wraparound transit (leftward through every
  // hop) and 0->63 (rightward through every hop) — each crossing takes one
  // label per plane (data, RMA, collective).
  for (int h = 0; h < 3; ++h) {
    EXPECT_LE(wan.labels_used(h, /*rightward=*/true), 6) << "hop " << h;
    EXPECT_LE(wan.labels_used(h, /*rightward=*/false), 6) << "hop " << h;
  }

  std::vector<Delivery> rx;
  wire_up(engine, wan, &rx);
  wan.nic(63).submit_tx(vc_to(0), tagged_payload(63), true);  // full transit
  wan.nic(15).submit_tx(vc_to(16), tagged_payload(15), true);  // hop 0 only
  engine.run();
  ASSERT_EQ(rx.size(), 2u);
  for (const auto& d : rx) EXPECT_EQ(d.data, tagged_payload(d.from));
}

TEST(AtmLan, DetailedModeDeliversIdenticalData) {
  sim::Engine engine;
  FabricConfig cfg;
  cfg.n_hosts = 2;
  cfg.nic.detailed_cells = true;
  cfg.nic.io_buffer_size = 8192;
  AtmFabric lan(engine, cfg);
  std::vector<Delivery> rx;
  wire_up(engine, lan, &rx);
  const Bytes data = tagged_payload(3, 5000);
  lan.nic(0).submit_tx(vc_to(1), data, true);
  engine.run();
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].data, data);
}

}  // namespace
}  // namespace ncs::atm
