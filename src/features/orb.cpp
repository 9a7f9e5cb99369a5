#include "features/orb.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "features/fast.hpp"
#include "imaging/transform.hpp"
#include "util/rng.hpp"

namespace bees::feat {

namespace {

/// The 256 BRIEF test pairs.  Generated once, deterministically, from a
/// fixed seed with the Gaussian(0, patch/5) sampling of the original BRIEF
/// paper, clipped to the patch.
struct BriefPattern {
  std::array<std::int8_t, 256> x1, y1, x2, y2;

  explicit BriefPattern(int radius) {
    util::Rng rng(0x0b5e55ed5eedULL);  // fixed: pattern is part of the format
    const double sigma = radius / 2.5;
    auto sample = [&]() {
      const double v = rng.normal(0.0, sigma);
      return static_cast<std::int8_t>(std::clamp(
          static_cast<int>(std::lround(v)), -(radius - 2), radius - 2));
    };
    for (int i = 0; i < 256; ++i) {
      x1[static_cast<std::size_t>(i)] = sample();
      y1[static_cast<std::size_t>(i)] = sample();
      x2[static_cast<std::size_t>(i)] = sample();
      y2[static_cast<std::size_t>(i)] = sample();
    }
  }
};

const BriefPattern& pattern_for_radius15() {
  static const BriefPattern p(15);
  return p;
}

/// std::lround of a rotated BRIEF offset.  The offset is a float of
/// magnitude below 2^5, so d +/- 0.5 in double is exact (or, for a float
/// too small for that, still strictly between -1 and 1), and truncating it
/// rounds half away from zero.
int round_half_away(float v) noexcept {
  const double d = v;
  return static_cast<int>(d < 0 ? d - 0.5 : d + 0.5);
}

Descriptor256 steered_brief(const img::Image& gray, const Keypoint& kp,
                            int cx, int cy, std::uint64_t* ops) {
  const BriefPattern& pat = pattern_for_radius15();
  const float cosa = std::cos(kp.angle);
  const float sina = std::sin(kp.angle);
  Descriptor256 d;
  for (int i = 0; i < 256; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    // Rotate both test points by the keypoint orientation (steered BRIEF).
    const int ax =
        cx + round_half_away(cosa * pat.x1[idx] - sina * pat.y1[idx]);
    const int ay =
        cy + round_half_away(sina * pat.x1[idx] + cosa * pat.y1[idx]);
    const int bx =
        cx + round_half_away(cosa * pat.x2[idx] - sina * pat.y2[idx]);
    const int by =
        cy + round_half_away(sina * pat.x2[idx] + cosa * pat.y2[idx]);
    if (gray.at_clamped(ax, ay) < gray.at_clamped(bx, by)) d.set_bit(i);
  }
  if (ops) *ops += 256 * 8;
  return d;
}

/// First moments of the circular patch of the given radius, walked row by
/// row between each row's end points; `px(dx, dy)` reads the pixel at that
/// offset from the centre.
template <class Pixel>
float centroid_angle(Pixel px, int radius) {
  double m10 = 0, m01 = 0;
  const int r2 = radius * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    // The row holds exactly the dx with dx * dx + dy * dy <= r2.
    int half = radius;
    while (half * half + dy * dy > r2) --half;
    for (int dx = -half; dx <= half; ++dx) {
      const double v = px(dx, dy);
      m10 += dx * v;
      m01 += dy * v;
    }
  }
  return static_cast<float>(std::atan2(m01, m10));
}

}  // namespace

float intensity_centroid_angle(const img::Image& gray, int x, int y,
                               int radius) {
  if (x >= radius && y >= radius && x + radius < gray.width() &&
      y + radius < gray.height()) {
    const std::ptrdiff_t ch = gray.channels();
    const std::ptrdiff_t stride = gray.width() * ch;
    const std::uint8_t* p =
        gray.data().data() + (y * stride + static_cast<std::ptrdiff_t>(x) * ch);
    return centroid_angle(
        [p, ch, stride](int dx, int dy) { return p[dy * stride + dx * ch]; },
        radius);
  }
  return centroid_angle(
      [&gray, x, y](int dx, int dy) { return gray.at_clamped(x + dx, y + dy); },
      radius);
}

BinaryFeatures extract_orb(const img::Image& image, const OrbParams& params) {
  BinaryFeatures out;
  img::Image gray = img::to_gray(image);
  out.stats.ops += gray.pixel_count() * 3;  // grayscale conversion

  // Per-level keypoint quota proportional to level area so coarse levels
  // are not starved.
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
          32, static_cast<int>(std::lround(gray.width() /
                                           std::pow(params.scale_factor,
                                                    level))));
      const int h = std::max(
          32, static_cast<int>(std::lround(gray.height() /
                                           std::pow(params.scale_factor,
                                                    level))));
      if (w < 2 * params.patch_radius + 3 || h < 2 * params.patch_radius + 3) {
        break;
      }
      level_img = img::resize(gray, w, h);
      scale = static_cast<double>(gray.width()) / w;
      out.stats.ops += level_img.pixel_count() * 4;  // bilinear resize
    }
    // Light blur stabilizes the binary tests (as in the reference ORB).
    const img::Image blurred = img::gaussian_blur(level_img, 1.0);
    out.stats.ops += level_img.pixel_count() * 14;  // separable 7-tap x2

    FastParams fp;
    fp.threshold = params.fast_threshold;
    fp.border = params.patch_radius + 1;
    std::vector<Keypoint> kps = detect_fast(blurred, fp, &out.stats.ops);

    // Harris re-ranking: strongest corners first.
    for (auto& kp : kps) {
      kp.response = harris_response(blurred, static_cast<int>(kp.x),
                                    static_cast<int>(kp.y));
      out.stats.ops += 7 * 7 * 6;
    }
    std::sort(kps.begin(), kps.end(), [](const Keypoint& a, const Keypoint& b) {
      return a.response > b.response;
    });
    const auto quota = static_cast<std::size_t>(
        std::lround(params.max_features *
                    level_area[static_cast<std::size_t>(level)] / total_area));
    if (kps.size() > quota) kps.resize(quota);

    for (auto& kp : kps) {
      const int cx = static_cast<int>(kp.x);
      const int cy = static_cast<int>(kp.y);
      kp.angle = intensity_centroid_angle(blurred, cx, cy,
                                          params.patch_radius);
      out.stats.ops += static_cast<std::uint64_t>(params.patch_radius) *
                       params.patch_radius * 4;
      const Descriptor256 d =
          steered_brief(blurred, kp, cx, cy, &out.stats.ops);
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

}  // namespace bees::feat
