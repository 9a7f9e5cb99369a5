#include "features/orb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "features/fast.hpp"
#include "imaging/transform.hpp"
#include "util/rng.hpp"

namespace bees::feat {

namespace {

/// The BRIEF pattern is drawn for a 31x31 patch and its test points are
/// clipped to kBriefClip pixels on each axis.
constexpr int kBriefRadius = 15;
constexpr int kBriefClip = kBriefRadius - 2;
/// A rotated test point lies within kBriefClip * sqrt(2) < 18.5 pixels of
/// the keypoint, so each rounded offset is at most this many pixels.
constexpr int kBriefReach = 18;
static_assert(4 * 2 * kBriefClip * kBriefClip <
              (2 * kBriefReach + 1) * (2 * kBriefReach + 1));

/// The 256 BRIEF test pairs.  Generated once, deterministically, from a
/// fixed seed with the Gaussian(0, patch/5) sampling of the original BRIEF
/// paper, clipped to the patch.  Test i compares point (x[i], y[i]) with
/// point (x[256 + i], y[256 + i]); the coordinates are small integers,
/// held as floats for the rotation.
struct BriefPattern {
  std::array<float, 512> x, y;

  BriefPattern() {
    util::Rng rng(0x0b5e55ed5eedULL);  // fixed: pattern is part of the format
    const double sigma = kBriefRadius / 2.5;
    auto sample = [&]() {
      const double v = rng.normal(0.0, sigma);
      return static_cast<float>(std::clamp(static_cast<int>(std::lround(v)),
                                            -kBriefClip, kBriefClip));
    };
    for (std::size_t i = 0; i < 256; ++i) {
      x[i] = sample();
      y[i] = sample();
      x[256 + i] = sample();
      y[256 + i] = sample();
    }
  }
};

const BriefPattern& brief_pattern() {
  static const BriefPattern p;
  return p;
}

/// std::lround of a rotated BRIEF offset.  The offset is a float of
/// magnitude below 2^5, so d +/- 0.5 in double is exact (or, for a float
/// too small for that, still strictly between -1 and 1), and truncating it
/// rounds half away from zero.  copysign picks the sign without a branch
/// (for -0.0 it subtracts, which still truncates to 0).
int round_half_away(float v) noexcept {
  const double d = v;
  return static_cast<int>(d + std::copysign(0.5, d));
}

/// The 256 tests of one keypoint; `px(k)` reads the pixel under test
/// point k.  Test 64w + j sets bit j of word w, the bit set_bit(64w + j)
/// sets.
template <class Pixel>
Descriptor256 brief_tests(Pixel px) {
  Descriptor256 d;
  for (std::size_t word = 0; word < 4; ++word) {
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < 64; ++j) {
      const std::size_t i = word * 64 + j;
      bits |= std::uint64_t{px(i) < px(256 + i)} << j;
    }
    d.bits[word] = bits;
  }
  return d;
}

Descriptor256 steered_brief(const img::Image& gray, const Keypoint& kp,
                            int cx, int cy, std::uint64_t* ops) {
  const BriefPattern& pat = brief_pattern();
  const float cosa = std::cos(kp.angle);
  const float sina = std::sin(kp.angle);
  // Rotate every test point by the keypoint orientation (steered BRIEF)
  // and round it to a pixel offset, all 512 points in one pass.
  std::array<int, 512> dx, dy;
  for (std::size_t k = 0; k < 512; ++k) {
    dx[k] = round_half_away(cosa * pat.x[k] - sina * pat.y[k]);
    dy[k] = round_half_away(sina * pat.x[k] + cosa * pat.y[k]);
  }
  if (ops) *ops += 256 * 8;
  if (cx >= kBriefReach && cy >= kBriefReach &&
      cx + kBriefReach < gray.width() && cy + kBriefReach < gray.height()) {
    // Every test point lies inside the image: read it directly.
    const std::ptrdiff_t ch = gray.channels();
    const std::ptrdiff_t stride = gray.width() * ch;
    const std::uint8_t* p = gray.data().data() + (cy * stride + cx * ch);
    return brief_tests(
        [&](std::size_t k) { return p[dy[k] * stride + dx[k] * ch]; });
  }
  return brief_tests([&](std::size_t k) {
    return gray.at_clamped(cx + dx[k], cy + dy[k]);
  });
}

/// First moments of the circular patch of the given radius, walked row by
/// row between each row's end points; `px(dx, dy)` reads the pixel at that
/// offset from the centre.  The moments are summed in integers and
/// converted once.  Summed in double, one product dx * v or dy * v at a
/// time (tests/reference), every partial sum is an integer of magnitude at
/// most 255 * r * (2r + 1)^2, below 2^53 for any r under 10^4, so those
/// sums are exact and atan2 receives the same operands.
template <class Pixel>
float centroid_angle(Pixel px, int radius) {
  std::int64_t m10 = 0, m01 = 0;
  const int r2 = radius * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    // The row holds exactly the dx with dx * dx + dy * dy <= r2.
    int half = radius;
    while (half * half + dy * dy > r2) --half;
    std::int64_t sum = 0, moment = 0;
    for (int dx = -half; dx <= half; ++dx) {
      const int v = px(dx, dy);
      sum += v;
      moment += dx * v;
    }
    m10 += moment;
    m01 += dy * sum;
  }
  return static_cast<float>(
      std::atan2(static_cast<double>(m01), static_cast<double>(m10)));
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
