// Golden driver outputs: the exact simulated makespan (ps), the FNV-1a
// result digest and the thread dispatch count of every paper-app driver,
// pinned as constants. The p4 and NCS variants of an app share one body
// (harness.hpp), so any change to a message, its order, a thread or a
// compute charge in either variant moves at least one of these numbers.
//
// Covered: all nine entry points at 1/2/4 nodes (JPEG p4/NCS at 2/4) on
// SUN/Ethernet and SUN/ATM, both tiers of the *_ncs and *_coll drivers on
// ATM, and run_matmul_ncs at 1, 2 and 4 threads per node. A mismatch
// prints the case in table form, so a deliberate modelling change can be
// re-recorded in one step.
//
// The second suite checks the cross-variant digest identities on ATM:
// every variant of an app computes the same output, and JPEG's output
// depends only on how many strips the image is cut into.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/drivers.hpp"

namespace ncs::cluster {
namespace {

struct GoldenCase {
  std::string name;
  std::function<AppResult()> run;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

struct Recorded {
  const char* name;
  std::int64_t elapsed_ps;
  std::uint64_t result_hash;
  /// Thread dispatches summed over every host and core: catches a thread
  /// spawned, dropped or rescheduled even when the makespan happens to hold.
  std::uint64_t dispatches;
};

// clang-format off
constexpr Recorded kRecorded[] = {
    {"fft_coll_atm_hsm_2", 2372755228568, 0x19216d83a798a2a6ull, 366},
    {"fft_coll_atm_hsm_4", 1209755114296, 0x19216d83a798a2a6ull, 948},
    {"fft_coll_atm_nsm_2", 2486556142872, 0x19216d83a798a2a6ull, 350},
    {"fft_coll_atm_nsm_4", 1379179000008, 0x19216d83a798a2a6ull, 916},
    {"fft_coll_eth_nsm_2", 3049550442392, 0x19216d83a798a2a6ull, 350},
    {"fft_coll_eth_nsm_4", 1724405618136, 0x19216d83a798a2a6ull, 916},
    {"fft_ncs_atm_hsm_1", 4700331000000, 0x19216d83a798a2a6ull, 110},
    {"fft_ncs_atm_hsm_2", 2371189971424, 0x19216d83a798a2a6ull, 963},
    {"fft_ncs_atm_hsm_4", 1194402542848, 0x19216d83a798a2a6ull, 2163},
    {"fft_ncs_atm_nsm_1", 4700331000000, 0x19216d83a798a2a6ull, 110},
    {"fft_ncs_atm_nsm_2", 2516526542864, 0x19216d83a798a2a6ull, 963},
    {"fft_ncs_atm_nsm_4", 1361136257152, 0x19216d83a798a2a6ull, 2163},
    {"fft_ncs_eth_nsm_1", 5697334636352, 0x19216d83a798a2a6ull, 110},
    {"fft_ncs_eth_nsm_2", 3066165424192, 0x19216d83a798a2a6ull, 963},
    {"fft_ncs_eth_nsm_4", 1656960672544, 0x19216d83a798a2a6ull, 2163},
    {"fft_p4_atm_1", 4700193000000, 0x19216d83a798a2a6ull, 97},
    {"fft_p4_atm_2", 2544366142872, 0x19216d83a798a2a6ull, 275},
    {"fft_p4_atm_4", 1371481685728, 0x19216d83a798a2a6ull, 557},
    {"fft_p4_eth_1", 5697196636352, 0x19216d83a798a2a6ull, 97},
    {"fft_p4_eth_2", 3150595715104, 0x19216d83a798a2a6ull, 275},
    {"fft_p4_eth_4", 1729840321168, 0x19216d83a798a2a6ull, 557},
    {"jpeg_coll_atm_hsm_1", 7557219000000, 0x331380c4c1cd1ccfull, 155},
    {"jpeg_coll_atm_hsm_2", 3853194264296, 0xae7478d43d864c02ull, 630},
    {"jpeg_coll_atm_hsm_4", 2002278457158, 0xe178bf36fbace6b6ull, 1122},
    {"jpeg_coll_atm_nsm_1", 7557219000000, 0x331380c4c1cd1ccfull, 155},
    {"jpeg_coll_atm_nsm_2", 4742110528692, 0xae7478d43d864c02ull, 181},
    {"jpeg_coll_atm_nsm_4", 3336532071610, 0xe178bf36fbace6b6ull, 230},
    {"jpeg_coll_eth_nsm_1", 9160244454535, 0x331380c4c1cd1ccfull, 155},
    {"jpeg_coll_eth_nsm_2", 6401520296962, 0xae7478d43d864c02ull, 181},
    {"jpeg_coll_eth_nsm_4", 5255450781810, 0xe178bf36fbace6b6ull, 230},
    {"jpeg_ncs_atm_hsm_2", 5876994421440, 0xae7478d43d864c02ull, 1087},
    {"jpeg_ncs_atm_hsm_4", 2984409296440, 0xe178bf36fbace6b6ull, 1121},
    {"jpeg_ncs_atm_nsm_2", 6990512357264, 0xae7478d43d864c02ull, 215},
    {"jpeg_ncs_atm_nsm_4", 3739824725061, 0xe178bf36fbace6b6ull, 269},
    {"jpeg_ncs_eth_nsm_2", 9141958151504, 0xae7478d43d864c02ull, 215},
    {"jpeg_ncs_eth_nsm_4", 4961814733321, 0xe178bf36fbace6b6ull, 269},
    {"jpeg_p4_atm_2", 9482307150246, 0x331380c4c1cd1ccfull, 164},
    {"jpeg_p4_atm_4", 4984869114407, 0xae7478d43d864c02ull, 176},
    {"jpeg_p4_eth_2", 12828267557561, 0x331380c4c1cd1ccfull, 164},
    {"jpeg_p4_eth_4", 6915347630295, 0xae7478d43d864c02ull, 175},
    {"matmul_coll_atm_hsm_1", 21233763000000, 0xabe182bf6e4c3dd0ull, 428},
    {"matmul_coll_atm_hsm_2", 10643713675002, 0xabe182bf6e4c3dd0ull, 650},
    {"matmul_coll_atm_hsm_4", 5356005467864, 0xabe182bf6e4c3dd0ull, 999},
    {"matmul_coll_atm_nsm_1", 21233763000000, 0xabe182bf6e4c3dd0ull, 428},
    {"matmul_coll_atm_nsm_2", 10970931267896, 0xabe182bf6e4c3dd0ull, 457},
    {"matmul_coll_atm_nsm_4", 5893392746500, 0xabe182bf6e4c3dd0ull, 519},
    {"matmul_coll_eth_nsm_1", 25737873545428, 0xabe182bf6e4c3dd0ull, 428},
    {"matmul_coll_eth_nsm_2", 13504290199984, 0xabe182bf6e4c3dd0ull, 457},
    {"matmul_coll_eth_nsm_4", 7586157012112, 0xabe182bf6e4c3dd0ull, 518},
    {"matmul_ncs_atm_hsm_1", 21233837000000, 0xabe182bf6e4c3dd0ull, 434},
    {"matmul_ncs_atm_hsm_1_tpn1", 21233697000000, 0xabe182bf6e4c3dd0ull, 426},
    {"matmul_ncs_atm_hsm_1_tpn4", 21233903000000, 0xabe182bf6e4c3dd0ull, 440},
    {"matmul_ncs_atm_hsm_2", 10658679078574, 0xabe182bf6e4c3dd0ull, 895},
    {"matmul_ncs_atm_hsm_2_tpn1", 10662487864292, 0xabe182bf6e4c3dd0ull, 861},
    {"matmul_ncs_atm_hsm_2_tpn4", 10660548764284, 0xabe182bf6e4c3dd0ull, 959},
    {"matmul_ncs_atm_hsm_4", 5371687492864, 0xabe182bf6e4c3dd0ull, 1167},
    {"matmul_ncs_atm_hsm_4_tpn1", 5376579864296, 0xabe182bf6e4c3dd0ull, 1101},
    {"matmul_ncs_atm_hsm_4_tpn4", 5375815200003, 0xabe182bf6e4c3dd0ull, 1283},
    {"matmul_ncs_atm_nsm_1", 21233837000000, 0xabe182bf6e4c3dd0ull, 434},
    {"matmul_ncs_atm_nsm_1_tpn1", 21233697000000, 0xabe182bf6e4c3dd0ull, 426},
    {"matmul_ncs_atm_nsm_1_tpn4", 21233903000000, 0xabe182bf6e4c3dd0ull, 440},
    {"matmul_ncs_atm_nsm_2", 11041045214318, 0xabe182bf6e4c3dd0ull, 512},
    {"matmul_ncs_atm_nsm_2_tpn1", 11066374500038, 0xabe182bf6e4c3dd0ull, 478},
    {"matmul_ncs_atm_nsm_2_tpn4", 11029752700029, 0xabe182bf6e4c3dd0ull, 576},
    {"matmul_ncs_atm_nsm_4", 5864965300029, 0xabe182bf6e4c3dd0ull, 596},
    {"matmul_ncs_atm_nsm_4_tpn1", 5877165414318, 0xabe182bf6e4c3dd0ull, 528},
    {"matmul_ncs_atm_nsm_4_tpn4", 5860212985743, 0xabe182bf6e4c3dd0ull, 696},
    {"matmul_ncs_eth_nsm_1", 25737947545428, 0xabe182bf6e4c3dd0ull, 434},
    {"matmul_ncs_eth_nsm_1_tpn1", 25737807545428, 0xabe182bf6e4c3dd0ull, 426},
    {"matmul_ncs_eth_nsm_1_tpn4", 25738013545428, 0xabe182bf6e4c3dd0ull, 440},
    {"matmul_ncs_eth_nsm_2", 13690527278769, 0xabe182bf6e4c3dd0ull, 509},
    {"matmul_ncs_eth_nsm_2_tpn1", 13754378399984, 0xabe182bf6e4c3dd0ull, 478},
    {"matmul_ncs_eth_nsm_2_tpn4", 13660795654524, 0xabe182bf6e4c3dd0ull, 569},
    {"matmul_ncs_eth_nsm_4", 7547730478776, 0xabe182bf6e4c3dd0ull, 588},
    {"matmul_ncs_eth_nsm_4_tpn1", 7579615927262, 0xabe182bf6e4c3dd0ull, 526},
    {"matmul_ncs_eth_nsm_4_tpn4", 7532289472717, 0xabe182bf6e4c3dd0ull, 702},
    {"matmul_p4_atm_1", 21233697000000, 0xabe182bf6e4c3dd0ull, 426},
    {"matmul_p4_atm_2", 11114637771467, 0xabe182bf6e4c3dd0ull, 445},
    {"matmul_p4_atm_4", 5950247057175, 0xabe182bf6e4c3dd0ull, 465},
    {"matmul_p4_eth_1", 25737807545428, 0xabe182bf6e4c3dd0ull, 426},
    {"matmul_p4_eth_2", 13738589654531, 0xabe182bf6e4c3dd0ull, 446},
    {"matmul_p4_eth_4", 7568460781809, 0xabe182bf6e4c3dd0ull, 466},
};
// clang-format on

struct Net {
  const char* tag;
  ClusterConfig (*preset)(int n_procs);
  std::vector<NcsTier> tiers;
};

const char* tier_tag(NcsTier t) { return t == NcsTier::nsm_p4 ? "nsm" : "hsm"; }

std::vector<GoldenCase> golden_cases() {
  const std::vector<Net> nets = {
      {"eth", sun_ethernet, {NcsTier::nsm_p4}},
      {"atm", sun_atm_lan, {NcsTier::nsm_p4, NcsTier::hsm_atm}},
  };
  std::vector<GoldenCase> out;
  const auto add = [&](std::string name, std::function<AppResult()> run) {
    out.push_back({std::move(name), std::move(run)});
  };
  for (const Net& net : nets) {
    const std::string nt = net.tag;
    const auto cfg = net.preset;
    for (const int n : {1, 2, 4}) {
      const std::string ns = std::to_string(n);
      add("matmul_p4_" + nt + "_" + ns, [cfg, n] { return run_matmul_p4(cfg(0), n); });
      add("fft_p4_" + nt + "_" + ns, [cfg, n] { return run_fft_p4(cfg(0), n); });
      if (n >= 2)
        add("jpeg_p4_" + nt + "_" + ns, [cfg, n] { return run_jpeg_p4(cfg(0), n); });
      for (const NcsTier tier : net.tiers) {
        const std::string tt = nt + "_" + tier_tag(tier) + "_" + ns;
        add("matmul_ncs_" + tt, [cfg, n, tier] { return run_matmul_ncs(cfg(0), n, tier); });
        add("fft_ncs_" + tt, [cfg, n, tier] { return run_fft_ncs(cfg(0), n, tier); });
        if (n >= 2)
          add("jpeg_ncs_" + tt, [cfg, n, tier] { return run_jpeg_ncs(cfg(0), n, tier); });
        add("matmul_coll_" + tt, [cfg, n, tier] { return run_matmul_coll(cfg(0), n, tier); });
        add("jpeg_coll_" + tt, [cfg, n, tier] { return run_jpeg_coll(cfg(0), n, tier); });
        if (n >= 2)
          add("fft_coll_" + tt, [cfg, n, tier] { return run_fft_coll(cfg(0), n, tier); });
        for (const int tpn : {1, 4})
          add("matmul_ncs_" + tt + "_tpn" + std::to_string(tpn),
              [cfg, n, tier, tpn] { return run_matmul_ncs(cfg(0), n, tier, tpn); });
      }
    }
  }
  return out;
}

class DriverGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DriverGolden, ElapsedAndDigestMatchRecording) {
  const GoldenCase& c = GetParam();
  const AppResult r = c.run();
  EXPECT_TRUE(r.correct);
  std::uint64_t dispatches = 0;
  for (const AppResult::CoreUsage& u : r.cores) dispatches += u.dispatches;
  char line[192];
  std::snprintf(line, sizeof line, "{\"%s\", %" PRId64 ", 0x%016" PRIx64 "ull, %" PRIu64 "},",
                c.name.c_str(), r.elapsed.ps(), r.result_hash, dispatches);
  const Recorded* rec = nullptr;
  for (const Recorded& k : kRecorded)
    if (c.name == k.name) rec = &k;
  ASSERT_NE(rec, nullptr) << "unrecorded case; recorded as: " << line;
  EXPECT_EQ(r.elapsed.ps(), rec->elapsed_ps) << "now: " << line;
  EXPECT_EQ(r.result_hash, rec->result_hash) << "now: " << line;
  EXPECT_EQ(dispatches, rec->dispatches) << "now: " << line;
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, DriverGolden, ::testing::ValuesIn(golden_cases()),
                         [](const auto& param_info) { return param_info.param.name; });

// --- cross-variant digest identities (SUN/ATM) -------------------------------

constexpr std::uint64_t kMatmulDigest = 0xabe182bf6e4c3dd0ull;
constexpr std::uint64_t kFftDigest = 0x19216d83a798a2a6ull;

TEST(DriverDigests, EveryMatmulVariantComputesTheSameProduct) {
  for (const int n : {1, 2, 4, 8}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(run_matmul_p4(sun_atm_lan(0), n).result_hash, kMatmulDigest);
    for (const NcsTier tier : {NcsTier::nsm_p4, NcsTier::hsm_atm}) {
      EXPECT_EQ(run_matmul_ncs(sun_atm_lan(0), n, tier).result_hash, kMatmulDigest);
      EXPECT_EQ(run_matmul_coll(sun_atm_lan(0), n, tier).result_hash, kMatmulDigest);
    }
  }
}

TEST(DriverDigests, EveryFftVariantComputesTheSameSpectrum) {
  for (const int n : {1, 2, 4, 8}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(run_fft_p4(sun_atm_lan(0), n).result_hash, kFftDigest);
    for (const NcsTier tier : {NcsTier::nsm_p4, NcsTier::hsm_atm}) {
      EXPECT_EQ(run_fft_ncs(sun_atm_lan(0), n, tier).result_hash, kFftDigest);
      const AppResult coll = run_fft_coll(sun_atm_lan(0), n, tier);
      EXPECT_TRUE(coll.correct);
      EXPECT_EQ(coll.result_hash, kFftDigest);
    }
  }
}

// JPEG is lossy per strip, so its output is a function of the strip count
// alone: p4 over 2N nodes (N compressors), NCS over N nodes (N/2
// compressors x 2 threads) and the collective variant over N ranks all cut
// the image into N strips.
TEST(DriverDigests, JpegOutputDependsOnlyOnTheStripCount) {
  const struct {
    int strips;
    std::uint64_t digest;
  } kStrips[] = {{1, 0x331380c4c1cd1ccfull}, {2, 0xae7478d43d864c02ull},
                 {4, 0xe178bf36fbace6b6ull}};
  for (const auto& [n, digest] : kStrips) {
    SCOPED_TRACE(n);
    EXPECT_EQ(run_jpeg_p4(sun_atm_lan(0), 2 * n).result_hash, digest);
    for (const NcsTier tier : {NcsTier::nsm_p4, NcsTier::hsm_atm}) {
      if (n >= 2) {
        EXPECT_EQ(run_jpeg_ncs(sun_atm_lan(0), n, tier).result_hash, digest);
      }
      EXPECT_EQ(run_jpeg_coll(sun_atm_lan(0), n, tier).result_hash, digest);
    }
  }
}

}  // namespace
}  // namespace ncs::cluster
