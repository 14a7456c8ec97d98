// Reproduces Table 1: "Execution times of Matrix Multiplication (seconds)"
// — p4 vs NCS_MTS/p4 on the SUN/Ethernet and ATM (NYNET) testbeds for
// 1/2/4/8 nodes (the paper reports no 8-node ATM row; neither do we).
//
// `--prof` additionally runs a profiled 4-node ATM NCS matmul: prints the
// bottleneck attribution table and writes table1_matmul_report.json
// (ncs-run-report-v3) plus table1_matmul_trace.json (flow events stitch
// each send span to its recv span across host tracks in Perfetto).
#include "cluster/drivers.hpp"
#include "cluster/table.hpp"

int main(int argc, char** argv) {
  using namespace ncs::cluster;
  return run_paper_table(
      {.bench = "table1_matmul",
       .title = "Table 1: Execution times of Matrix Multiplication (seconds), 128x128 doubles",
       .nodes = {1, 2, 4, 8},
       .p4 = run_matmul_p4,
       .ncs = [](ClusterConfig cfg, int nodes) { return run_matmul_ncs(std::move(cfg), nodes); },
       .prof_names_report = true},
      argc, argv);
}
