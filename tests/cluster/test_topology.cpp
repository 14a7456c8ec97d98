// The presets' fabric element names and metric/trace prefixes: fault plans
// target the names, and run reports and the benchmark fingerprint key on
// the prefixes, so a topology refactor must leave them where they are.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace ncs::cluster {
namespace {

struct Names {
  std::vector<std::string> switches;
  std::vector<std::string> links;
  std::vector<std::string> tracks;
};

/// Element names, plus the switch trace tracks after a one-message ring
/// (tracks are named on first use; the ring crosses every switch).
Names names_of(Cluster& c) {
  c.enable_trace();
  c.init_ncs_hsm();
  c.run([&](int rank) {
    const int n = c.n_procs();
    c.node(rank).send(0, 0, (rank + 1) % n, Bytes(64, std::byte{1}));
    (void)c.node(rank).recv(0, (rank + n - 1) % n, 0);
  });
  Names n;
  c.atm_fabric()->for_each_switch([&](atm::Switch& s) { n.switches.push_back(s.name()); });
  c.atm_fabric()->for_each_link([&](net::Link& l) { n.links.push_back(l.name()); });
  const obs::TraceLog& trace = *c.trace();
  for (int t = 0; t < trace.track_count(); ++t)
    if (trace.track_name(t).starts_with("switch")) n.tracks.push_back(trace.track_name(t));
  std::sort(n.tracks.begin(), n.tracks.end());
  return n;
}

/// Host links first, then the backbone hops left to right; each duplex
/// link is a ">" (forward) and "<" (backward) direction.
std::vector<std::string> links(int hosts, const std::vector<std::string>& hops) {
  std::vector<std::string> out;
  for (int i = 0; i < hosts; ++i) {
    out.push_back("taxi" + std::to_string(i) + ">");
    out.push_back("taxi" + std::to_string(i) + "<");
  }
  for (const auto& h : hops) {
    out.push_back(h + ">");
    out.push_back(h + "<");
  }
  return out;
}

void expect_switch_metrics(Cluster& c, const std::vector<std::string>& prefixes) {
  obs::MetricsRegistry& reg = c.metrics();
  for (const auto& p : prefixes) {
    for (const char* leaf : {"/bursts", "/cells", "/unroutable", "/port_drops"})
      EXPECT_TRUE(reg.contains(p + leaf)) << p + leaf;
  }
  EXPECT_TRUE(reg.contains("p0/nic/tx_cells"));
}

TEST(ClusterTopology, SunAtmLanIsOneStar) {
  Cluster c(sun_atm_lan(3));
  const Names n = names_of(c);
  EXPECT_EQ(n.switches, (std::vector<std::string>{"lan-switch"}));
  EXPECT_EQ(n.links, links(3, {}));
  EXPECT_EQ(n.tracks, (std::vector<std::string>{"switch"}));
  expect_switch_metrics(c, {"switch"});
  EXPECT_FALSE(c.metrics().contains("switch0/bursts"));
}

TEST(ClusterTopology, NynetWanIsTwoStarsOnOneSonetHop) {
  Cluster c(nynet_wan(4));
  const Names n = names_of(c);
  EXPECT_EQ(n.switches, (std::vector<std::string>{"wan-switch0", "wan-switch1"}));
  EXPECT_EQ(n.links, links(4, {"sonet"}));
  EXPECT_EQ(n.tracks, (std::vector<std::string>{"switch0", "switch1"}));
  expect_switch_metrics(c, {"switch0", "switch1"});
}

TEST(ClusterTopology, OneHostNynetWanDegeneratesToTheLanStar) {
  Cluster c(nynet_wan(1));
  const Names n = names_of(c);
  EXPECT_EQ(n.switches, (std::vector<std::string>{"lan-switch"}));
  EXPECT_EQ(n.links, links(1, {}));
  expect_switch_metrics(c, {"switch"});
}

TEST(ClusterTopology, NynetWanMultiNumbersEveryHop) {
  Cluster c(nynet_wan_multi(6, 3));
  const Names n = names_of(c);
  EXPECT_EQ(n.switches,
            (std::vector<std::string>{"wan-switch0", "wan-switch1", "wan-switch2"}));
  EXPECT_EQ(n.links, links(6, {"sonet0", "sonet1"}));
  EXPECT_EQ(n.tracks, (std::vector<std::string>{"switch0", "switch1", "switch2"}));
  expect_switch_metrics(c, {"switch0", "switch1", "switch2"});

  // A one-site chain is the LAN star, names included.
  Cluster one(nynet_wan_multi(4, 1));
  const Names n1 = names_of(one);
  EXPECT_EQ(n1.switches, (std::vector<std::string>{"lan-switch"}));
  EXPECT_EQ(n1.links, links(4, {}));
  expect_switch_metrics(one, {"switch"});
}

}  // namespace
}  // namespace ncs::cluster
