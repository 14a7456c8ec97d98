#include "apps/image.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace ncs::apps {

Image Image::strip(int row_begin, int row_end) const {
  NCS_ASSERT(0 <= row_begin && row_begin <= row_end && row_end <= height);
  Image out;
  out.width = width;
  out.height = row_end - row_begin;
  const std::size_t w = static_cast<std::size_t>(width);
  out.pixels.assign(pixels.begin() + static_cast<std::ptrdiff_t>(w * static_cast<std::size_t>(row_begin)),
                    pixels.begin() + static_cast<std::ptrdiff_t>(w * static_cast<std::size_t>(row_end)));
  return out;
}

Image make_test_image(int width, int height, std::uint64_t seed) {
  NCS_ASSERT(width > 0 && height > 0);
  Rng rng(seed);
  Image img;
  img.width = width;
  img.height = height;
  img.pixels.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));

  // Low-frequency phases randomized by the seed.
  const double p1 = rng.next_double() * 6.28;
  const double p2 = rng.next_double() * 6.28;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double fx = static_cast<double>(x) / width;
      const double fy = static_cast<double>(y) / height;
      double v = 120.0 + 60.0 * fx + 30.0 * std::sin(2 * std::numbers::pi * 3 * fy + p1) +
                 20.0 * std::sin(2 * std::numbers::pi * 5 * (fx + fy) + p2) +
                 6.0 * (rng.next_double() - 0.5);
      v = std::min(255.0, std::max(0.0, v));
      img.pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(v + 0.5);
    }
  }
  return img;
}

double psnr(const Image& a, const Image& b) {
  NCS_ASSERT(a.width == b.width && a.height == b.height);
  double mse = 0.0;
  for (std::size_t i = 0; i < a.pixels.size(); ++i) {
    const double d = static_cast<double>(a.pixels[i]) - static_cast<double>(b.pixels[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.pixels.size());
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

Bytes pack_image(const Image& img) {
  Bytes out(8 + img.pixels.size());
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(img.width));
  w.u32(static_cast<std::uint32_t>(img.height));
  w.bytes(BytesView(reinterpret_cast<const std::byte*>(img.pixels.data()), img.pixels.size()));
  return out;
}

Image unpack_image(BytesView data) {
  ByteReader r(data);
  Image img;
  img.width = static_cast<int>(r.u32());
  img.height = static_cast<int>(r.u32());
  const BytesView body = r.bytes(static_cast<std::size_t>(img.width) *
                                 static_cast<std::size_t>(img.height));
  img.pixels.resize(body.size());
  std::memcpy(img.pixels.data(), body.data(), body.size());
  return img;
}

Bytes with_offset(int row_begin, BytesView payload) {
  Bytes out(4 + payload.size());
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(row_begin));
  w.bytes(payload);
  return out;
}

std::pair<int, BytesView> split_offset(BytesView data) {
  ByteReader r(data);
  const int row = static_cast<int>(r.u32());
  return {row, r.bytes(r.remaining())};
}

}  // namespace ncs::apps
