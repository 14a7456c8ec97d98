// Grayscale continuous-tone images for the JPEG pipeline (Section 5.2).
//
// The paper compresses a 600 KB image; no trace of it survives, so the
// generator below synthesizes deterministic continuous-tone content
// (smooth gradients + low-frequency texture + mild noise) whose block
// statistics behave like photographic material — which is all that the
// pipeline's stage costs and compression ratios depend on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace ncs::apps {

struct Image {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  // row-major, 1 byte per pixel

  std::size_t size_bytes() const { return pixels.size(); }
  std::uint8_t at(int x, int y) const {
    return pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                  static_cast<std::size_t>(x)];
  }

  /// Horizontal strip [row_begin, row_end).
  Image strip(int row_begin, int row_end) const;
};

/// Synthetic continuous-tone test image.
Image make_test_image(int width, int height, std::uint64_t seed);

/// Peak signal-to-noise ratio in dB (identical images -> +inf).
double psnr(const Image& a, const Image& b);

Bytes pack_image(const Image& img);
Image unpack_image(BytesView data);

/// Prefixes `payload` with the first row of the strip it carries, so the
/// collector can place strips arriving in any order; split_offset undoes it.
Bytes with_offset(int row_begin, BytesView payload);
std::pair<int, BytesView> split_offset(BytesView data);

}  // namespace ncs::apps
