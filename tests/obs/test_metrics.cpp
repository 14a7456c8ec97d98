// Observability layer: the metrics registry — and the invariant the
// registry design rests on: registry totals equal the legacy per-module
// stats structs, because the registry *reads* those structs rather than
// counting separately. (The JSON writer and trace log have their own
// suites in test_json.cpp / test_trace.cpp.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atm/network.hpp"
#include "cluster/cluster.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ncs::obs {
namespace {

using namespace ncs::literals;

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, ReadsLiveFieldsAtSnapshotTime) {
  std::uint64_t count = 3;
  Duration busy = 250_ms;
  MetricsRegistry reg;
  reg.counter("p0/x/count", &count);
  reg.duration("p0/x/busy", &busy);
  reg.gauge("p0/x/depth", [] { return 1.5; });

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.contains("p0/x/count"));
  EXPECT_FALSE(reg.contains("p0/x/missing"));
  EXPECT_EQ(reg.counter_value("p0/x/count"), 3u);
  EXPECT_DOUBLE_EQ(reg.value("p0/x/busy"), 0.25);
  EXPECT_DOUBLE_EQ(reg.value("p0/x/depth"), 1.5);

  count = 10;  // pull model: the registry sees the module's later updates
  busy = busy + 750_ms;
  EXPECT_EQ(reg.counter_value("p0/x/count"), 10u);
  EXPECT_DOUBLE_EQ(reg.value("p0/x/busy"), 1.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByKey) {
  MetricsRegistry reg;
  reg.counter("b", [] { return std::uint64_t{2}; });
  reg.counter("a", [] { return std::uint64_t{1}; });
  reg.counter("c", [] { return std::uint64_t{3}; });
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].key, "a");
  EXPECT_EQ(samples[1].key, "b");
  EXPECT_EQ(samples[2].key, "c");
  EXPECT_EQ(samples[1].kind, MetricKind::counter);
  EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
}

TEST(MetricsRegistry, IndexedLookupFindsEveryKeyOfALargeRegistry) {
  // The scale of a P=1024 cluster's registry: registration and lookup are
  // indexed, so this stays linear in the key count.
  MetricsRegistry reg;
  constexpr std::uint64_t kKeys = 100'000;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    reg.counter("p" + std::to_string(i) + "/n", [i] { return i; });
  EXPECT_EQ(reg.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; i += 997)
    EXPECT_EQ(reg.counter_value("p" + std::to_string(i) + "/n"), i);
  EXPECT_FALSE(reg.contains("p100000/n"));
}

TEST(MetricsRegistryDeathTest, DuplicateKeyIsRefused) {
  MetricsRegistry reg;
  reg.counter("p0/x", [] { return std::uint64_t{0}; });
  EXPECT_DEATH(reg.counter("p0/x", [] { return std::uint64_t{1}; }), "duplicate metric key");
}

TEST(MetricsRegistry, JsonEmbedsUnderMetricsKey) {
  MetricsRegistry reg;
  std::uint64_t n = 42;
  reg.counter("p0/mod/n", &n);
  const std::string doc = reg.to_json();
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"p0/mod/n\":42"), std::string::npos);
}

// --- Registry vs legacy stats on a real run ---------------------------------

TEST(ClusterMetrics, RegistryTotalsEqualLegacyStats) {
  using cluster::Cluster;
  cluster::ClusterConfig cfg = cluster::sun_atm_lan(2);
  Cluster c(cfg);
  c.init_ncs_hsm();

  constexpr int kMessages = 8;
  c.run([&](int rank) {
    mps::Node& node = c.node(rank);
    const int t = node.t_create([&, rank] {
      if (rank == 0) {
        for (int i = 0; i < kMessages; ++i)
          node.send(0, 0, 1, Bytes(4000, std::byte{1}));
      } else {
        for (int i = 0; i < kMessages; ++i) (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
      }
    });
    node.host().join(node.user_thread(t));
  });

  MetricsRegistry& reg = c.metrics();
  for (int r = 0; r < 2; ++r) {
    const std::string p = "p" + std::to_string(r);
    const mps::Node::Stats& ns = c.node(r).stats();
    EXPECT_EQ(reg.counter_value(p + "/mps/sends"), ns.sends);
    EXPECT_EQ(reg.counter_value(p + "/mps/recvs"), ns.recvs);
    EXPECT_EQ(reg.counter_value(p + "/mps/bytes_sent"), ns.bytes_sent);
    EXPECT_EQ(reg.counter_value(p + "/mps/bytes_received"), ns.bytes_received);
    EXPECT_EQ(reg.counter_value(p + "/mps/flow/window_stalls"),
              c.node(r).flow_control().stats().window_stalls);
    EXPECT_EQ(reg.counter_value(p + "/mps/ec/retransmits"),
              c.node(r).error_control().stats().retransmits);
    EXPECT_EQ(reg.counter_value(p + "/mts/dispatches"), c.host(r).stats().dispatches);
    EXPECT_EQ(reg.counter_value(p + "/nic/tx_cells"), c.atm_fabric()->nic(r).stats().tx_cells);
  }
  EXPECT_EQ(reg.counter_value("p0/mps/sends"), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(reg.counter_value("p1/mps/recvs"), static_cast<std::uint64_t>(kMessages));

  // The snapshot is one coherent document: every key valued, JSON embeds.
  const auto samples = reg.snapshot();
  EXPECT_EQ(samples.size(), reg.size());
  const std::string doc = reg.to_json();
  EXPECT_NE(doc.find("\"p0/mps/sends\""), std::string::npos);
}

}  // namespace
}  // namespace ncs::obs
