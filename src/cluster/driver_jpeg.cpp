#include <cmath>
#include <span>

#include "apps/image.hpp"
#include "apps/jpeg/codec.hpp"
#include "cluster/compute.hpp"
#include "cluster/harness.hpp"
#include "common/assert.hpp"

namespace ncs::cluster {

namespace {

using apps::Image;
using apps::make_test_image;
using apps::pack_image;
using apps::psnr;
using apps::split_offset;
using apps::unpack_image;
using apps::with_offset;

constexpr int kTypeStrip = 20;
constexpr int kTypeCompressed = 21;
constexpr int kTypeBack = 22;

/// Paste `strip` into `out` starting at `row_begin`.
void paste(Image& out, const Image& strip, int row_begin) {
  NCS_ASSERT(strip.width == out.width);
  NCS_ASSERT(row_begin + strip.height <= out.height);
  std::copy(strip.pixels.begin(), strip.pixels.end(),
            out.pixels.begin() + static_cast<std::ptrdiff_t>(row_begin) * out.width);
}

double compress_cycles(const Image& img) {
  return static_cast<double>(img.pixels.size()) *
         calibration().jpeg_compress_cycles_per_pixel;
}

double decompress_cycles(std::size_t pixels) {
  return static_cast<double>(pixels) * calibration().jpeg_decompress_cycles_per_pixel;
}

/// Cost of the master reading the image from disk (stage 0 of the paper's
/// five-stage pipeline).
double read_cycles(const Image& img) { return static_cast<double>(img.pixels.size()) * 2.0; }

/// The calibrated test image, its distributed reconstruction and the
/// reconstruction's quality check.
struct Jpeg {
  const Image original =
      make_test_image(calibration().jpeg_width, calibration().jpeg_height, 7);
  Image reconstructed{original.width, original.height,
                      std::vector<std::uint8_t>(original.pixels.size(), 0)};

  /// `extra_ok` folds in a variant's own check.
  AppResult finish(AppResult r, bool extra_ok = true) const {
    r.correct = psnr(original, reconstructed) > 30.0 && extra_ok;
    r.result_hash = fnv1a(reconstructed.pixels.data(),
                          reconstructed.pixels.size() * sizeof(reconstructed.pixels[0]));
    return r;
  }
};

/// The five-stage pipeline (paper Figs 17/18): the host reads the image
/// and distributes `compressors * tpn` pieces, node i (1..N/2) compresses
/// and ships to its partner decompressor i + N/2, which returns the piece
/// to host worker 0. p4 runs it with one worker per process (tpn = 1),
/// NCS with two.
AppResult jpeg(ClusterConfig base, int nodes, Stack stack, int tpn) {
  const int height = calibration().jpeg_height;
  NCS_ASSERT(nodes >= 2 && nodes % 2 == 0);
  const int compressors = nodes / 2;
  NCS_ASSERT(height % (compressors * tpn) == 0);
  const int piece_rows = height / (compressors * tpn);
  Jpeg j;

  return j.finish(run_hosted(std::move(base), nodes, stack, [&](Comm& comm) {
    const int rank = comm.rank();
    if (rank == 0) {
      // Worker 0 reads the image and unblocks worker 1 (NCS_unblock(tid2)
      // / NCS_block() in the paper); each then distributes its pieces, and
      // worker 0 collects every decompressed piece.
      mts::Event image_read(comm.host());
      comm.workers(tpn, "host-t", mts::kDefaultPriority, [&](int t) {
        if (t == 0) {
          charge_compute(comm.host(), read_cycles(j.original));
          image_read.set();
        } else {
          image_read.wait();
        }
        for (int i = 1; i <= compressors; ++i) {
          const int row = ((i - 1) * tpn + t) * piece_rows;
          comm.send(t, {kTypeStrip, t, i},
                    with_offset(row, pack_image(j.original.strip(row, row + piece_rows))));
        }
        if (t != 0) return;
        for (int k = 0; k < compressors * tpn; ++k) {
          const Bytes data = comm.recv({kTypeBack, mps::kAnyThread, mps::kAnyProcess}, 0);
          const auto [row, payload] = split_offset(data);
          paste(j.reconstructed, unpack_image(payload), row);
        }
      });
    } else if (rank <= compressors) {
      comm.workers(tpn, "compress", mts::kDefaultPriority, [&](int t) {
        const Bytes data = comm.recv({kTypeStrip, t, 0}, t);
        const auto [row, payload] = split_offset(data);
        const Image strip = unpack_image(payload);
        charge_compute(comm.host(), compress_cycles(strip));
        const Bytes stream = apps::jpeg::compress(strip);
        comm.send(t, {kTypeCompressed, t, rank + compressors}, with_offset(row, stream));
      });
    } else {
      comm.workers(tpn, "decompress", mts::kDefaultPriority, [&](int t) {
        const Bytes data = comm.recv({kTypeCompressed, t, rank - compressors}, t);
        const auto [row, payload] = split_offset(data);
        const Image strip = apps::jpeg::decompress(payload);
        charge_compute(comm.host(), decompress_cycles(strip.pixels.size()));
        comm.send(t, {kTypeBack, 0, 0}, with_offset(row, pack_image(strip)));
      });
    }
  }));
}

}  // namespace

AppResult run_jpeg_p4(ClusterConfig base, int nodes) {
  return jpeg(std::move(base), nodes, Stack::p4, 1);
}

AppResult run_jpeg_ncs(ClusterConfig base, int nodes, NcsTier tier) {
  return jpeg(std::move(base), nodes, ncs_stack(tier), 2);  // paper Section 5.2
}

AppResult run_jpeg_coll(ClusterConfig base, int nodes, NcsTier tier) {
  const int height = calibration().jpeg_height;
  NCS_ASSERT(nodes >= 1 && height % nodes == 0);
  const int strip_rows = height / nodes;
  Jpeg j;
  double distributed_psnr = 0.0;

  const AppResult r = run_spmd(std::move(base), nodes, tier, [&](Comm& comm) {
    mps::Node& node = comm.node();
    const int rank = comm.rank();

    // Rank 0 reads and scatters the strips; every rank round-trips its own
    // strip through the codec (both pipeline stages charged locally) and
    // the decompressed pieces converge back by gather.
    std::vector<Bytes> strips;
    if (rank == 0) {
      charge_compute(node.host(), read_cycles(j.original));
      for (int i = 0; i < nodes; ++i) {
        const int row = i * strip_rows;
        strips.push_back(pack_image(j.original.strip(row, row + strip_rows)));
      }
    }
    const Image strip = unpack_image(node.scatter(0, strips));
    charge_compute(node.host(), compress_cycles(strip));
    const Bytes stream = apps::jpeg::compress(strip);
    const Image back = apps::jpeg::decompress(stream);
    charge_compute(node.host(), decompress_cycles(back.pixels.size()));

    const auto gathered = node.gather(0, pack_image(back));
    if (rank == 0) {
      for (int i = 0; i < nodes; ++i)
        paste(j.reconstructed, unpack_image(gathered[static_cast<std::size_t>(i)]),
              i * strip_rows);
    }

    // Distributed quality check: each rank's round-trip squared error,
    // allreduced so every rank can compute the whole image's PSNR.
    double sse = 0.0;
    for (std::size_t i = 0; i < strip.pixels.size(); ++i) {
      const double d = static_cast<double>(strip.pixels[i]) - static_cast<double>(back.pixels[i]);
      sse += d * d;
    }
    const auto total = node.allreduce_sum(std::span<const double>(&sse, 1));
    const double mse = total[0] / static_cast<double>(j.original.pixels.size());
    const double quality =
        mse <= 0.0 ? 100.0 : 10.0 * std::log10(255.0 * 255.0 / mse);
    if (rank == 0) distributed_psnr = quality;
  });
  return j.finish(r, distributed_psnr > 30.0);
}

}  // namespace ncs::cluster
