#include "common/peer_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ncs {
namespace {

TEST(PeerMap, FindNeverCreatesARecord) {
  PeerMap<std::uint32_t> m;
  const PeerMap<std::uint32_t>& cm = m;
  EXPECT_EQ(cm.find(7), nullptr);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(m.size(), 0u);
  ++m[7];
  ASSERT_NE(cm.find(7), nullptr);
  EXPECT_EQ(*cm.find(7), 1u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(PeerMap, RecordsStayPutWhileTheMapGrows) {
  PeerMap<std::vector<int>> m;
  std::vector<int>& first = m[3];
  first.push_back(42);
  for (int p = 0; p < 4096; ++p) m[p].push_back(p);
  EXPECT_EQ(&m[3], &first);
  EXPECT_EQ(first, (std::vector<int>{42, 3}));
  EXPECT_EQ(m.size(), 4096u);
}

}  // namespace
}  // namespace ncs
