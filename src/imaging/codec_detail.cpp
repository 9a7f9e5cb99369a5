#include "imaging/codec_detail.hpp"

#include <climits>

#include "util/byte_io.hpp"

namespace bees::img::detail {

std::array<int, 64> scaled_quant(const std::array<int, 64>& base,
                                 int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> q{};
  for (int i = 0; i < 64; ++i) {
    q[static_cast<std::size_t>(i)] = std::clamp(
        (base[static_cast<std::size_t>(i)] * scale + 50) / 100, 1, 255);
  }
  return q;
}

Plane make_plane(int w, int h) {
  Plane p;
  p.width = w;
  p.height = h;
  p.samples.assign(
      static_cast<std::size_t>(p.padded_w()) * p.padded_h(), 0.0f);
  return p;
}

void check_coded_size(int w, int h, int channels,
                      std::size_t payload_bytes) {
  const auto blocks = [](std::int64_t pw, std::int64_t ph) {
    if (pw > INT_MAX - 7 || ph > INT_MAX - 7) {
      throw util::DecodeError("codec: dimensions overflow");
    }
    return static_cast<std::uint64_t>((pw + 7) / 8) *
           static_cast<std::uint64_t>((ph + 7) / 8);
  };
  std::uint64_t total = blocks(w, h);
  if (channels == 3) {
    total += 2 * blocks((std::int64_t{w} + 1) / 2, (std::int64_t{h} + 1) / 2);
  }
  if ((total + 7) / 8 > payload_bytes) {
    throw util::DecodeError("codec: dimensions exceed stream length");
  }
}

void pad_replicate(Plane& p) {
  for (int y = 0; y < p.padded_h(); ++y) {
    const int sy = std::min(y, p.height - 1);
    for (int x = 0; x < p.padded_w(); ++x) {
      const int sx = std::min(x, p.width - 1);
      if (x >= p.width || y >= p.height) p.at(x, y) = p.at(sx, sy);
    }
  }
}

std::vector<Plane> to_planes(const Image& src) {
  std::vector<Plane> planes;
  if (src.is_gray()) {
    Plane y = make_plane(src.width(), src.height());
    for (int j = 0; j < src.height(); ++j) {
      for (int i = 0; i < src.width(); ++i) y.at(i, j) = src.at(i, j);
    }
    pad_replicate(y);
    planes.push_back(std::move(y));
    return planes;
  }
  // RGB -> YCbCr with 4:2:0 chroma subsampling (box average).
  Plane y = make_plane(src.width(), src.height());
  const int cw = (src.width() + 1) / 2;
  const int chh = (src.height() + 1) / 2;
  Plane cb = make_plane(cw, chh);
  Plane cr = make_plane(cw, chh);
  std::vector<float> cbf(static_cast<std::size_t>(src.width()) *
                         src.height());
  std::vector<float> crf(cbf.size());
  for (int j = 0; j < src.height(); ++j) {
    for (int i = 0; i < src.width(); ++i) {
      const float r = src.at(i, j, 0);
      const float g = src.at(i, j, 1);
      const float b = src.at(i, j, 2);
      y.at(i, j) = 0.299f * r + 0.587f * g + 0.114f * b;
      const std::size_t k = static_cast<std::size_t>(j) * src.width() + i;
      cbf[k] = -0.168736f * r - 0.331264f * g + 0.5f * b + 128.0f;
      crf[k] = 0.5f * r - 0.418688f * g - 0.081312f * b + 128.0f;
    }
  }
  for (int j = 0; j < chh; ++j) {
    for (int i = 0; i < cw; ++i) {
      float sb = 0, sr = 0;
      int n = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const int x = i * 2 + dx, yy = j * 2 + dy;
          if (x < src.width() && yy < src.height()) {
            const std::size_t k =
                static_cast<std::size_t>(yy) * src.width() + x;
            sb += cbf[k];
            sr += crf[k];
            ++n;
          }
        }
      }
      cb.at(i, j) = sb / static_cast<float>(n);
      cr.at(i, j) = sr / static_cast<float>(n);
    }
  }
  pad_replicate(y);
  pad_replicate(cb);
  pad_replicate(cr);
  planes.push_back(std::move(y));
  planes.push_back(std::move(cb));
  planes.push_back(std::move(cr));
  return planes;
}

Image planes_to_image(int w, int h, int channels,
                      const std::vector<Plane>& planes) {
  if (channels == 1) {
    Image out(w, h, 1);
    for (int j = 0; j < h; ++j) {
      for (int i = 0; i < w; ++i) out.set(i, j, to_u8(planes[0].at(i, j)));
    }
    return out;
  }
  const int cw = (w + 1) / 2;
  const int chh = (h + 1) / 2;
  Image out(w, h, 3);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      const float yy = planes[0].at(i, j);
      // Nearest chroma sample (4:2:0 upsampling).
      const float cbv =
          planes[1].at(std::min(i / 2, cw - 1), std::min(j / 2, chh - 1)) -
          128.0f;
      const float crv =
          planes[2].at(std::min(i / 2, cw - 1), std::min(j / 2, chh - 1)) -
          128.0f;
      out.set(i, j, to_u8(yy + 1.402f * crv), 0);
      out.set(i, j, to_u8(yy - 0.344136f * cbv - 0.714136f * crv), 1);
      out.set(i, j, to_u8(yy + 1.772f * cbv), 2);
    }
  }
  return out;
}

}  // namespace bees::img::detail
