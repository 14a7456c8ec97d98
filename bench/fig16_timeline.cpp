// Reproduces Figure 16: "Computation and Communication pattern with two
// threads/processor" — the per-processor activity timelines of the JPEG
// pipeline, single-threaded (pure message passing) vs two threads per
// node, with busy-fraction summaries.
#include <cstdio>

#include "apps/image.hpp"
#include "apps/jpeg/codec.hpp"
#include "cluster/bench_opts.hpp"
#include "cluster/cluster.hpp"
#include "cluster/compute.hpp"

using namespace ncs;
using namespace ncs::cluster;
using apps::Image;
using apps::make_test_image;
using apps::pack_image;
using apps::split_offset;
using apps::unpack_image;
using apps::with_offset;

namespace {

constexpr int kNodes = 4;  // 2 compressors -> 2 decompressors

Duration run_case(int tpn, std::string* out, const std::string& trace_path) {
  const Calibration& cal = calibration();
  const int compressors = kNodes / 2;
  ClusterConfig cfg = sun_ethernet(0);
  cfg.n_procs = kNodes + 1;
  Cluster cluster(cfg);
  cluster.enable_timeline();
  if (!trace_path.empty()) cluster.enable_trace();
  cluster.init_ncs_nsm();

  const Image original = make_test_image(cal.jpeg_width, cal.jpeg_height, 7);
  const int half_rows = cal.jpeg_height / (compressors * tpn);

  const Duration elapsed = cluster.run([&](int rank) {
    mps::Node& node = cluster.node(rank);
    if (rank == 0) {
      std::vector<int> tids;
      for (int t = 0; t < tpn; ++t) {
        tids.push_back(node.t_create([&, t] {
          for (int i = 1; i <= compressors; ++i) {
            const int slice = (i - 1) * tpn + t;
            const int row = slice * half_rows;
            node.send(t, t, i, with_offset(row, pack_image(original.strip(row, row + half_rows))));
          }
          if (t == 0)
            for (int k = 0; k < compressors * tpn; ++k)
              (void)node.recv(mps::kAnyThread, mps::kAnyProcess, 0);
        }, mts::kDefaultPriority, "t" + std::to_string(t)));
      }
      for (int tid : tids) node.host().join(node.user_thread(tid));
    } else if (rank <= compressors) {
      std::vector<int> tids;
      for (int t = 0; t < tpn; ++t) {
        tids.push_back(node.t_create([&, t, rank] {
          const Bytes data = node.recv(t, 0, t);
          const auto [row, payload] = split_offset(data);
          const Image strip = unpack_image(payload);
          charge_compute(node.host(), static_cast<double>(strip.pixels.size()) *
                                          cal.jpeg_compress_cycles_per_pixel);
          node.send(t, t, rank + compressors, with_offset(row, apps::jpeg::compress(strip)));
        }, mts::kDefaultPriority, "t" + std::to_string(t)));
      }
      for (int tid : tids) node.host().join(node.user_thread(tid));
    } else {
      std::vector<int> tids;
      for (int t = 0; t < tpn; ++t) {
        tids.push_back(node.t_create([&, t, rank] {
          const Bytes data = node.recv(t, rank - compressors, t);
          const auto [row, payload] = split_offset(data);
          const Image strip = apps::jpeg::decompress(payload);
          charge_compute(node.host(), static_cast<double>(strip.pixels.size()) *
                                          cal.jpeg_decompress_cycles_per_pixel);
          node.send(t, 0, 0, with_offset(row, pack_image(strip)));
        }, mts::kDefaultPriority, "t" + std::to_string(t)));
      }
      for (int tid : tids) node.host().join(node.user_thread(tid));
    }
  });

  // Render the application threads + per-track busy summaries.
  sim::Timeline& tl = cluster.timeline();
  std::string text;
  const std::string full = tl.render_ascii(TimePoint::origin(), TimePoint::origin() + elapsed, 90);
  std::size_t pos = 0;
  while (pos < full.size()) {
    const std::size_t eol = full.find('\n', pos);
    const std::string line = full.substr(pos, eol - pos);
    if (line.find("/t") != std::string::npos || line.find('[') != std::string::npos)
      text += line + "\n";
    pos = eol + 1;
  }
  text += "\n   track           compute  communicate   idle\n";
  for (int k = 0; k < tl.track_count(); ++k) {
    const std::string& name = tl.track_name(k);
    if (name.find("/t") == std::string::npos) continue;
    const auto s = tl.summarize(k);
    char buf[128];
    std::snprintf(buf, sizeof buf, "   %-14s  %6.1f%%     %6.1f%%  %6.1f%%\n", name.c_str(),
                  s.fraction(sim::Activity::compute) * 100,
                  s.fraction(sim::Activity::communicate) * 100,
                  s.fraction(sim::Activity::idle) * 100);
    text += buf;
  }
  *out = text;
  if (!trace_path.empty()) {
    if (cluster.write_trace(trace_path)) {
      std::printf("wrote Chrome/Perfetto trace (%d thread%s/node) to %s\n", tpn,
                  tpn == 1 ? "" : "s", trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n", trace_path.c_str());
    }
  }
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace[=PATH] writes the two-threads-per-node run as a Chrome-trace
  // JSON file (load in Perfetto / chrome://tracing).
  const BenchOptions opts = parse_bench_options(argc, argv);
  std::string trace_path;
  if (opts.trace)
    trace_path = opts.trace_path.empty() ? "fig16_timeline_trace.json" : opts.trace_path;

  std::printf("Figure 16: computation/communication pattern of the JPEG pipeline,\n");
  std::printf("%d nodes on Ethernet, single-threaded vs two threads per processor.\n\n", kNodes);

  std::string single, threaded;
  const Duration t1 = run_case(1, &single, "");
  const Duration t2 = run_case(2, &threaded, trace_path);

  std::printf("--- single-threaded (pure message passing) --- total %.3f s\n%s\n", t1.sec(),
              single.c_str());
  std::printf("--- two threads per processor --- total %.3f s\n%s\n", t2.sec(), threaded.c_str());
  std::printf("threading reduces the makespan by %.1f %%\n", (t1 - t2).sec() / t1.sec() * 100.0);
  return t2 < t1 ? 0 : 1;
}
