#include "imaging/transform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bees::img {

namespace {
std::uint8_t clamp_u8(double v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/// Bilinear blend of the four neighbours of a sample point whose fractional
/// offsets from p00 are (ax, ay).
double bilinear(double p00, double p10, double p01, double p11, double ax,
                double ay) noexcept {
  return p00 * (1 - ax) * (1 - ay) + p10 * ax * (1 - ay) +
         p01 * (1 - ax) * ay + p11 * ax * ay;
}

/// The two clamped source indices a bilinear sample at `f` blends along one
/// axis of length `n`, and the weight of the second.
struct AxisTap {
  int i0 = 0, i1 = 0;
  double a = 0;
};

AxisTap axis_tap(double f, int n) noexcept {
  const int i = static_cast<int>(std::floor(f));
  return {std::clamp(i, 0, n - 1), std::clamp(i + 1, 0, n - 1), f - i};
}

/// Bilinear sample with replicate borders at real-valued (fx, fy).
double sample_bilinear(const Image& src, double fx, double fy,
                       int c) noexcept {
  const AxisTap tx = axis_tap(fx, src.width());
  const AxisTap ty = axis_tap(fy, src.height());
  return bilinear(src.at(tx.i0, ty.i0, c), src.at(tx.i1, ty.i0, c),
                  src.at(tx.i0, ty.i1, c), src.at(tx.i1, ty.i1, c), tx.a,
                  ty.a);
}

/// out(e) = sum over k of kernel[k] * taps[k][e] for every e < n.  Each
/// element adds its taps in k order starting from +0.0, exactly as a
/// one-element-at-a-time loop would; blocks of independent elements only
/// let the compiler keep several sums in vector registers at once.
template <class Store>
void weighted_sum(const std::vector<double>& kernel, const double* const* taps,
                  std::size_t n, Store store) {
  constexpr std::size_t kBlock = 4;
  std::size_t e = 0;
  for (; e + kBlock <= n; e += kBlock) {
    double acc[kBlock] = {};
    for (std::size_t k = 0; k < kernel.size(); ++k) {
      const double w = kernel[k];
      const double* t = taps[k] + e;
      for (std::size_t j = 0; j < kBlock; ++j) acc[j] += w * t[j];
    }
    for (std::size_t j = 0; j < kBlock; ++j) store(e + j, acc[j]);
  }
  for (; e < n; ++e) {
    double acc = 0.0;
    for (std::size_t k = 0; k < kernel.size(); ++k) {
      acc += kernel[k] * taps[k][e];
    }
    store(e, acc);
  }
}
}  // namespace

Image to_gray(const Image& src) {
  if (src.is_gray()) return src;
  Image out(src.width(), src.height(), 1);
  const std::uint8_t* p = src.data().data();
  std::uint8_t* o = out.data().data();
  for (std::size_t i = 0; i < out.pixel_count(); ++i, p += 3) {
    const double r = p[0];
    const double g = p[1];
    const double b = p[2];
    o[i] = clamp_u8(0.299 * r + 0.587 * g + 0.114 * b);
  }
  return out;
}

Image resize(const Image& src, int new_width, int new_height) {
  if (new_width <= 0 || new_height <= 0) {
    throw std::invalid_argument("resize: dimensions must be positive");
  }
  const int ch = src.channels();
  Image out(new_width, new_height, ch);
  const double sx = static_cast<double>(src.width()) / new_width;
  const double sy = static_cast<double>(src.height()) / new_height;
  // Map pixel centers to pixel centers.
  std::vector<AxisTap> cols(static_cast<std::size_t>(new_width));
  for (int x = 0; x < new_width; ++x) {
    cols[static_cast<std::size_t>(x)] =
        axis_tap((x + 0.5) * sx - 0.5, src.width());
  }
  const std::size_t stride = static_cast<std::size_t>(src.width()) * ch;
  const std::uint8_t* data = src.data().data();
  std::uint8_t* o = out.data().data();
  for (int y = 0; y < new_height; ++y) {
    const AxisTap row = axis_tap((y + 0.5) * sy - 0.5, src.height());
    const std::uint8_t* r0 = data + static_cast<std::size_t>(row.i0) * stride;
    const std::uint8_t* r1 = data + static_cast<std::size_t>(row.i1) * stride;
    for (const AxisTap& col : cols) {
      const std::size_t i0 = static_cast<std::size_t>(col.i0) * ch;
      const std::size_t i1 = static_cast<std::size_t>(col.i1) * ch;
      for (int c = 0; c < ch; ++c) {
        *o++ = clamp_u8(bilinear(r0[i0 + c], r0[i1 + c], r1[i0 + c],
                                 r1[i1 + c], col.a, row.a));
      }
    }
  }
  return out;
}

Image bitmap_compress(const Image& src, double proportion) {
  proportion = std::clamp(proportion, 0.0, 0.99);
  if (proportion == 0.0) return src;
  const int w = std::max(8, static_cast<int>(
                                std::lround(src.width() * (1 - proportion))));
  const int h = std::max(8, static_cast<int>(
                                std::lround(src.height() * (1 - proportion))));
  return resize(src, w, h);
}

Image gaussian_blur(const Image& src, double sigma) {
  if (sigma <= 0) throw std::invalid_argument("gaussian_blur: sigma <= 0");
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<double> kernel(static_cast<std::size_t>(2 * radius + 1));
  double norm = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = v;
    norm += v;
  }
  for (auto& k : kernel) k /= norm;

  // Both passes run over rows of w * ch interleaved samples, so every
  // channel count takes the same path.  Horizontal pass into a double
  // buffer: each source row is widened and padded with `radius` copies of
  // its edge pixels, so tap k of sample e sits at padded[e + k * ch].
  const int w = src.width(), h = src.height(), ch = src.channels();
  const std::size_t n = static_cast<std::size_t>(w) * ch;
  std::vector<const double*> taps(kernel.size());
  std::vector<double> padded(static_cast<std::size_t>(w + 2 * radius) * ch);
  std::vector<double> tmp(n * h);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = src.data().data() + y * n;
    for (int p = 0; p < w + 2 * radius; ++p) {
      const int sx = std::clamp(p - radius, 0, w - 1);
      for (int c = 0; c < ch; ++c) padded[p * ch + c] = row[sx * ch + c];
    }
    for (std::size_t k = 0; k < taps.size(); ++k) {
      taps[k] = padded.data() + k * ch;
    }
    double* t = tmp.data() + y * n;
    weighted_sum(kernel, taps.data(), n,
                 [t](std::size_t e, double v) { t[e] = v; });
  }
  // Vertical pass: tap k of row y is buffer row clamp(y + k - radius).
  Image out(w, h, ch);
  for (int y = 0; y < h; ++y) {
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const int yy = std::clamp(y + static_cast<int>(k) - radius, 0, h - 1);
      taps[k] = tmp.data() + yy * n;
    }
    std::uint8_t* o = out.data().data() + y * n;
    weighted_sum(kernel, taps.data(), n,
                 [o](std::size_t e, double v) { o[e] = clamp_u8(v); });
  }
  return out;
}

Affine Affine::rotation_about(double cx, double cy, double angle_rad,
                              double scale, double tx, double ty) {
  // Destination->source: rotate by -angle and scale by 1/scale about the
  // center, then undo the translation.
  const double cosr = std::cos(-angle_rad) / scale;
  const double sinr = std::sin(-angle_rad) / scale;
  Affine m;
  m.a = cosr;
  m.b = -sinr;
  m.d = sinr;
  m.e = cosr;
  // Solve so that (cx + tx, cy + ty) maps back to (cx, cy).
  m.c = cx - m.a * (cx + tx) - m.b * (cy + ty);
  m.f = cy - m.d * (cx + tx) - m.e * (cy + ty);
  return m;
}

Image warp_affine(const Image& src, const Affine& m) {
  Image out(src.width(), src.height(), src.channels());
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < out.width(); ++x) {
      const double fx = m.a * x + m.b * y + m.c;
      const double fy = m.d * x + m.e * y + m.f;
      for (int c = 0; c < src.channels(); ++c) {
        out.set(x, y, clamp_u8(sample_bilinear(src, fx, fy, c)), c);
      }
    }
  }
  return out;
}

Image adjust_brightness_contrast(const Image& src, double gain, double bias) {
  Image out(src.width(), src.height(), src.channels());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    out.data()[i] = clamp_u8(gain * src.data()[i] + bias);
  }
  return out;
}

Image add_gaussian_noise(const Image& src, double stddev, util::Rng& rng) {
  Image out(src.width(), src.height(), src.channels());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    out.data()[i] = clamp_u8(src.data()[i] + rng.normal(0.0, stddev));
  }
  return out;
}

}  // namespace bees::img
