// Reproduces Table 2: "Total execution times (Seconds)" for the JPEG
// compression/decompression pipeline (600 KB image; N/2 compressor and
// N/2 decompressor nodes; 2/4/8 nodes; no 8-node ATM row in the paper).
#include "cluster/drivers.hpp"
#include "cluster/table.hpp"

int main(int argc, char** argv) {
  using namespace ncs::cluster;
  return run_paper_table(
      {.bench = "table2_jpeg",
       .title = "Table 2: JPEG compression/decompression pipeline total times (seconds), "
                "600 KB image",
       .verification = " (PSNR > 30 dB vs original)",
       .nodes = {2, 4, 8},
       .p4 = run_jpeg_p4,
       .ncs = [](ClusterConfig cfg, int nodes) { return run_jpeg_ncs(std::move(cfg), nodes); }},
      argc, argv);
}
