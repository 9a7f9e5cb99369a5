// Reference implementation of the AFE pixel kernels: grayscale, bilinear
// resize (and the affine warp sharing its sampler), separable Gaussian
// blur, FAST-9, Harris, intensity centroid,
// steered BRIEF and the ORB pipeline that strings them together.  These
// are the straightforward one-pixel-at-a-time loops, every read a
// bounds-clamped call, that the library's kernels replaced.  The library
// promises bit-identical outputs, so the oracle tests compare it against
// these loops element for element.  Keep them as they are: they define
// the outputs, not the speed.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "features/keypoint.hpp"
#include "features/orb.hpp"
#include "imaging/image.hpp"
#include "imaging/transform.hpp"
#include "util/rng.hpp"

namespace bees::ref {

/// Replicate-border read of channel `c` at (x, y).
inline std::uint8_t at_clamped(const img::Image& im, int x, int y,
                               int c = 0) {
  return im.at(std::clamp(x, 0, im.width() - 1),
               std::clamp(y, 0, im.height() - 1), c);
}

inline std::uint8_t clamp_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

inline double sample_bilinear(const img::Image& src, double fx, double fy,
                              int c) {
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const double ax = fx - x0;
  const double ay = fy - y0;
  const double p00 = at_clamped(src, x0, y0, c);
  const double p10 = at_clamped(src, x0 + 1, y0, c);
  const double p01 = at_clamped(src, x0, y0 + 1, c);
  const double p11 = at_clamped(src, x0 + 1, y0 + 1, c);
  return p00 * (1 - ax) * (1 - ay) + p10 * ax * (1 - ay) +
         p01 * (1 - ax) * ay + p11 * ax * ay;
}

inline img::Image to_gray(const img::Image& src) {
  if (src.is_gray()) return src;
  img::Image out(src.width(), src.height(), 1);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      const double r = src.at(x, y, 0);
      const double g = src.at(x, y, 1);
      const double b = src.at(x, y, 2);
      out.set(x, y, clamp_u8(0.299 * r + 0.587 * g + 0.114 * b));
    }
  }
  return out;
}

inline img::Image resize(const img::Image& src, int new_width,
                         int new_height) {
  img::Image out(new_width, new_height, src.channels());
  const double sx = static_cast<double>(src.width()) / new_width;
  const double sy = static_cast<double>(src.height()) / new_height;
  for (int y = 0; y < new_height; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    for (int x = 0; x < new_width; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      for (int c = 0; c < src.channels(); ++c) {
        out.set(x, y, clamp_u8(sample_bilinear(src, fx, fy, c)), c);
      }
    }
  }
  return out;
}

inline img::Image warp_affine(const img::Image& src, const img::Affine& m) {
  img::Image out(src.width(), src.height(), src.channels());
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

inline img::Image gaussian_blur(const img::Image& src, double sigma) {
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<double> kernel(static_cast<std::size_t>(2 * radius + 1));
  double norm = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = v;
    norm += v;
  }
  for (auto& k : kernel) k /= norm;

  const int w = src.width(), h = src.height(), ch = src.channels();
  std::vector<double> tmp(static_cast<std::size_t>(w) * h * ch);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 at_clamped(src, x + i, y, c);
        }
        tmp[(static_cast<std::size_t>(y) * w + x) * ch + c] = acc;
      }
    }
  }
  img::Image out(w, h, ch);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < ch; ++c) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          const int yy = std::clamp(y + i, 0, h - 1);
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 tmp[(static_cast<std::size_t>(yy) * w + x) * ch + c];
        }
        out.set(x, y, clamp_u8(acc), c);
      }
    }
  }
  return out;
}

inline constexpr int kCircleX[16] = {0,  1,  2,  3,  3,  3,  2,  1,
                                     0, -1, -2, -3, -3, -3, -2, -1};
inline constexpr int kCircleY[16] = {-3, -3, -2, -1, 0,  1,  2,  3,
                                     3,  3,  2,  1,  0, -1, -2, -3};

inline float segment_score(const img::Image& im, int x, int y, int t) {
  const int center = im.at(x, y);
  int states[16];
  int diffs[16];
  for (int i = 0; i < 16; ++i) {
    const int v = im.at(x + kCircleX[i], y + kCircleY[i]);
    const int d = v - center;
    diffs[i] = std::abs(d);
    states[i] = d > t ? 1 : (d < -t ? -1 : 0);
  }
  for (int want : {1, -1}) {
    int run = 0;
    float best = 0;
    float run_sum = 0;
    for (int i = 0; i < 32; ++i) {
      const int k = i & 15;
      if (states[k] == want) {
        ++run;
        run_sum += static_cast<float>(diffs[k]);
        if (run >= 9) best = std::max(best, run_sum);
        if (run >= 16) break;
      } else {
        run = 0;
        run_sum = 0;
      }
    }
    if (best > 0) return best;
  }
  return 0;
}

inline std::vector<feat::Keypoint> detect_fast(const img::Image& gray,
                                               int threshold, int border,
                                               bool nonmax_suppression,
                                               std::uint64_t* ops) {
  std::vector<feat::Keypoint> out;
  const int b = std::max(border, 3);
  if (gray.width() <= 2 * b || gray.height() <= 2 * b) return out;
  std::vector<float> response(
      static_cast<std::size_t>(gray.width()) * gray.height(), 0.0f);
  std::uint64_t work = 0;
  for (int y = b; y < gray.height() - b; ++y) {
    for (int x = b; x < gray.width() - b; ++x) {
      const int c = gray.at(x, y);
      int brighter = 0, darker = 0;
      for (int i : {0, 4, 8, 12}) {
        const int v = gray.at(x + kCircleX[i], y + kCircleY[i]);
        if (v - c > threshold) ++brighter;
        if (c - v > threshold) ++darker;
      }
      work += 8;
      if (brighter < 2 && darker < 2) continue;
      const float score = segment_score(gray, x, y, threshold);
      work += 64;
      if (score > 0) {
        response[static_cast<std::size_t>(y) * gray.width() + x] = score;
      }
    }
  }
  for (int y = b; y < gray.height() - b; ++y) {
    for (int x = b; x < gray.width() - b; ++x) {
      const float r =
          response[static_cast<std::size_t>(y) * gray.width() + x];
      if (r <= 0) continue;
      if (nonmax_suppression) {
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (response[static_cast<std::size_t>(y + dy) * gray.width() +
                         (x + dx)] > r) {
              is_max = false;
              break;
            }
          }
        }
        if (!is_max) continue;
      }
      feat::Keypoint kp;
      kp.x = static_cast<float>(x);
      kp.y = static_cast<float>(y);
      kp.response = r;
      out.push_back(kp);
    }
  }
  if (ops) *ops += work;
  return out;
}

inline float harris_response(const img::Image& gray, int x, int y) {
  double a = 0, bsum = 0, c = 0;
  for (int dy = -3; dy <= 3; ++dy) {
    for (int dx = -3; dx <= 3; ++dx) {
      const int xx = x + dx, yy = y + dy;
      const double ix =
          (at_clamped(gray, xx + 1, yy) - at_clamped(gray, xx - 1, yy)) * 0.5;
      const double iy =
          (at_clamped(gray, xx, yy + 1) - at_clamped(gray, xx, yy - 1)) * 0.5;
      a += ix * ix;
      bsum += ix * iy;
      c += iy * iy;
    }
  }
  constexpr double k = 0.04;
  const double det = a * c - bsum * bsum;
  const double trace = a + c;
  return static_cast<float>(det - k * trace * trace);
}

inline float intensity_centroid_angle(const img::Image& gray, int x, int y,
                                      int radius) {
  double m10 = 0, m01 = 0;
  const int r2 = radius * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy > r2) continue;
      const double v = at_clamped(gray, x + dx, y + dy);
      m10 += dx * v;
      m01 += dy * v;
    }
  }
  return static_cast<float>(std::atan2(m01, m10));
}

/// The BRIEF test pairs; the pattern is part of the descriptor format.
struct BriefPattern {
  std::array<std::int8_t, 256> x1, y1, x2, y2;

  explicit BriefPattern(int radius) {
    util::Rng rng(0x0b5e55ed5eedULL);
    const double sigma = radius / 2.5;
    auto sample = [&]() {
      const double v = rng.normal(0.0, sigma);
      return static_cast<std::int8_t>(std::clamp(
          static_cast<int>(std::lround(v)), -(radius - 2), radius - 2));
    };
    for (std::size_t i = 0; i < 256; ++i) {
      x1[i] = sample();
      y1[i] = sample();
      x2[i] = sample();
      y2[i] = sample();
    }
  }
};

inline feat::Descriptor256 steered_brief(const img::Image& gray,
                                         const feat::Keypoint& kp, int cx,
                                         int cy, std::uint64_t* ops) {
  static const BriefPattern pat(15);
  const float cosa = std::cos(kp.angle);
  const float sina = std::sin(kp.angle);
  feat::Descriptor256 d;
  for (int i = 0; i < 256; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const int ax = cx + static_cast<int>(std::lround(
                            cosa * pat.x1[idx] - sina * pat.y1[idx]));
    const int ay = cy + static_cast<int>(std::lround(
                            sina * pat.x1[idx] + cosa * pat.y1[idx]));
    const int bx = cx + static_cast<int>(std::lround(
                            cosa * pat.x2[idx] - sina * pat.y2[idx]));
    const int by = cy + static_cast<int>(std::lround(
                            sina * pat.x2[idx] + cosa * pat.y2[idx]));
    if (at_clamped(gray, ax, ay) < at_clamped(gray, bx, by)) d.set_bit(i);
  }
  if (ops) *ops += 256 * 8;
  return d;
}

inline feat::BinaryFeatures extract_orb(const img::Image& image,
                                        const feat::OrbParams& params = {}) {
  feat::BinaryFeatures out;
  img::Image gray = ref::to_gray(image);
  out.stats.ops += gray.pixel_count() * 3;

  std::vector<double> level_area(static_cast<std::size_t>(params.levels));
  double total_area = 0;
  for (int l = 0; l < params.levels; ++l) {
    const double s = std::pow(params.scale_factor, l);
    level_area[static_cast<std::size_t>(l)] = 1.0 / (s * s);
    total_area += level_area[static_cast<std::size_t>(l)];
  }

  img::Image level_img = gray;
  double scale = 1.0;
  for (int level = 0; level < params.levels; ++level) {
    if (level > 0) {
      const int w = std::max(
          32, static_cast<int>(std::lround(
                  gray.width() / std::pow(params.scale_factor, level))));
      const int h = std::max(
          32, static_cast<int>(std::lround(
                  gray.height() / std::pow(params.scale_factor, level))));
      if (w < 2 * params.patch_radius + 3 || h < 2 * params.patch_radius + 3) {
        break;
      }
      level_img = ref::resize(gray, w, h);
      scale = static_cast<double>(gray.width()) / w;
      out.stats.ops += level_img.pixel_count() * 4;
    }
    const img::Image blurred = ref::gaussian_blur(level_img, 1.0);
    out.stats.ops += level_img.pixel_count() * 14;

    std::vector<feat::Keypoint> kps =
        ref::detect_fast(blurred, params.fast_threshold,
                         params.patch_radius + 1, true, &out.stats.ops);
    for (auto& kp : kps) {
      kp.response = ref::harris_response(blurred, static_cast<int>(kp.x),
                                    static_cast<int>(kp.y));
      out.stats.ops += 7 * 7 * 6;
    }
    std::sort(kps.begin(), kps.end(),
              [](const feat::Keypoint& a, const feat::Keypoint& b) {
                return a.response > b.response;
              });
    const auto quota = static_cast<std::size_t>(
        std::lround(params.max_features *
                    level_area[static_cast<std::size_t>(level)] / total_area));
    if (kps.size() > quota) kps.resize(quota);

    for (auto& kp : kps) {
      const int cx = static_cast<int>(kp.x);
      const int cy = static_cast<int>(kp.y);
      kp.angle =
          ref::intensity_centroid_angle(blurred, cx, cy, params.patch_radius);
      out.stats.ops += static_cast<std::uint64_t>(params.patch_radius) *
                       params.patch_radius * 4;
      const feat::Descriptor256 d =
          ref::steered_brief(blurred, kp, cx, cy, &out.stats.ops);
      kp.level = level;
      kp.scale = static_cast<float>(scale);
      kp.x = static_cast<float>(kp.x * scale);
      kp.y = static_cast<float>(kp.y * scale);
      out.keypoints.push_back(kp);
      out.descriptors.push_back(d);
    }
  }
  out.stats.keypoint_count = out.descriptors.size();
  return out;
}

}  // namespace bees::ref
