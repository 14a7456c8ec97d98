// Reproduces Table 3: "Execution times of FFT in seconds" — DIF FFT with
// M = 512 sample points, 8 sample sets; p4 vs NCS_MTS/p4 (two threads per
// node process) on both testbeds.
#include "cluster/drivers.hpp"
#include "cluster/table.hpp"

int main(int argc, char** argv) {
  using namespace ncs::cluster;
  return run_paper_table(
      {.bench = "table3_fft",
       .title = "Table 3: Execution times of FFT (seconds), M=512, 8 sample sets",
       .verification = " (vs whole-array FFT + reference DFT)",
       .nodes = {1, 2, 4, 8},
       .p4 = run_fft_p4,
       .ncs = [](ClusterConfig cfg, int nodes) { return run_fft_ncs(std::move(cfg), nodes); }},
      argc, argv);
}
