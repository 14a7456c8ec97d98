// The paper's measured execution times (seconds) for Tables 1-3, copied
// from the "paper ->" columns of EXPERIMENTS.md. The "ATM" columns are the
// paper's NYNET ATM testbed, which the table benches (and this benchmark)
// model with the sun_atm_lan preset. The paper reports no 8-node ATM rows,
// so those runs are not part of the workload.
#pragma once

namespace perfbench {

enum class App { matmul, jpeg, fft };

struct PaperRow {
  App app;
  bool ethernet;  // SUN/Ethernet when true, the ATM testbed otherwise
  int nodes;
  double p4_s;
  double ncs_s;
};

inline constexpr PaperRow kPaperRows[] = {
    // Table 1: matrix multiplication, 128x128 doubles.
    {App::matmul, true, 1, 25.77, 25.85},
    {App::matmul, true, 2, 16.89, 13.72},
    {App::matmul, true, 4, 10.64, 7.88},
    {App::matmul, true, 8, 5.90, 4.62},
    {App::matmul, false, 1, 24.89, 25.03},
    {App::matmul, false, 2, 14.40, 11.51},
    {App::matmul, false, 4, 7.52, 5.41},
    // Table 2: JPEG compression/decompression pipeline, 600 KB image.
    {App::jpeg, true, 2, 10.72, 9.04},
    {App::jpeg, true, 4, 15.33, 8.85},
    {App::jpeg, true, 8, 17.34, 6.54},
    {App::jpeg, false, 2, 6.25, 4.84},
    {App::jpeg, false, 4, 10.15, 4.07},
    // Table 3: FFT, M=512, 8 sample sets.
    {App::fft, true, 1, 5.76, 5.84},
    {App::fft, true, 2, 5.09, 4.76},
    {App::fft, true, 4, 4.58, 4.32},
    {App::fft, true, 8, 3.91, 3.47},
    {App::fft, false, 1, 5.25, 5.32},
    {App::fft, false, 2, 3.65, 3.34},
    {App::fft, false, 4, 2.72, 2.43},
};

inline const char* app_name(App a) {
  switch (a) {
    case App::matmul: return "matmul";
    case App::jpeg: return "jpeg";
    case App::fft: return "fft";
  }
  return "?";
}

}  // namespace perfbench
