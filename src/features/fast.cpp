#include "features/fast.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace bees::feat {

namespace {

// Bresenham circle of radius 3: the 16 offsets used by the segment test.
constexpr int kCircleX[16] = {0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1};
constexpr int kCircleY[16] = {-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3};

using CircleOffsets = std::array<std::ptrdiff_t, 16>;

/// Element offsets of the circle pixels from their centre in `im`'s
/// interleaved storage.  They step in whole pixels, so a colour input is
/// read on channel 0.
CircleOffsets circle_offsets(const img::Image& im) {
  CircleOffsets off{};
  for (std::size_t i = 0; i < off.size(); ++i) {
    off[i] = (static_cast<std::ptrdiff_t>(kCircleY[i]) * im.width() +
              kCircleX[i]) *
             im.channels();
  }
  return off;
}

/// Segment test: does a contiguous arc of >= 9 circle pixels sit entirely
/// `t` brighter or `t` darker than the center `p`?  Returns the arc SAD
/// score (0 if not a corner).
float segment_score(const std::uint8_t* p, const CircleOffsets& off, int t) {
  const int center = *p;
  int states[16];  // +1 brighter, -1 darker, 0 similar
  int diffs[16];
  for (int i = 0; i < 16; ++i) {
    const int v = p[off[static_cast<std::size_t>(i)]];
    const int d = v - center;
    diffs[i] = std::abs(d);
    states[i] = d > t ? 1 : (d < -t ? -1 : 0);
  }
  // Scan the doubled circle for a run of >= 9 equal non-zero states.
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
        if (run >= 16) break;  // full circle
      } else {
        run = 0;
        run_sum = 0;
      }
    }
    if (best > 0) return best;
  }
  return 0;
}

/// Harris measure over the 7x7 window around a pixel; `px(dx, dy)` reads
/// the pixel at that offset from it.
template <class Pixel>
float harris_window(Pixel px) {
  // Gradient second-moment matrix over a 7x7 window.
  double a = 0, bsum = 0, c = 0;
  for (int dy = -3; dy <= 3; ++dy) {
    for (int dx = -3; dx <= 3; ++dx) {
      const double ix = (px(dx + 1, dy) - px(dx - 1, dy)) * 0.5;
      const double iy = (px(dx, dy + 1) - px(dx, dy - 1)) * 0.5;
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

}  // namespace

std::vector<Keypoint> detect_fast(const img::Image& gray,
                                  const FastParams& params,
                                  std::uint64_t* ops) {
  std::vector<Keypoint> out;
  const int b = std::max(params.border, 3);
  if (gray.width() <= 2 * b || gray.height() <= 2 * b) return out;

  // Response map for non-max suppression (0 = not a corner).
  const int w = gray.width(), h = gray.height(), ch = gray.channels();
  std::vector<float> response(static_cast<std::size_t>(w) * h, 0.0f);
  const CircleOffsets off = circle_offsets(gray);
  const std::ptrdiff_t north = off[0], east = off[4], south = off[8],
                       west = off[12];
  const int t = params.threshold;
  std::uint64_t work = 0;
  for (int y = b; y < h - b; ++y) {
    const std::uint8_t* p = gray.data().data() +
                            (static_cast<std::size_t>(y) * w + b) * ch;
    float* resp = response.data() + static_cast<std::size_t>(y) * w;
    for (int x = b; x < w - b; ++x, p += ch) {
      // Quick rejection for the 9-contiguous test: an arc of >= 9 pixels
      // must contain at least 2 of the 4 compass points with the same
      // sign (the 3-of-4 variant is only valid for FAST-12).
      const int c = *p;
      const int vn = p[north], ve = p[east], vs = p[south], vw = p[west];
      const int brighter =
          (vn - c > t) + (ve - c > t) + (vs - c > t) + (vw - c > t);
      const int darker =
          (c - vn > t) + (c - ve > t) + (c - vs > t) + (c - vw > t);
      work += 8;
      if (brighter < 2 && darker < 2) continue;
      const float score = segment_score(p, off, t);
      work += 64;
      if (score > 0) resp[x] = score;
    }
  }

  for (int y = b; y < h - b; ++y) {
    const float* row = response.data() + static_cast<std::size_t>(y) * w;
    for (int x = b; x < w - b; ++x) {
      const float r = row[x];
      if (r <= 0) continue;
      if (params.nonmax_suppression) {
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          const float* nb = row + static_cast<std::ptrdiff_t>(dy) * w + x;
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (nb[dx] > r) {
              is_max = false;
              break;
            }
          }
        }
        if (!is_max) continue;
      }
      Keypoint kp;
      kp.x = static_cast<float>(x);
      kp.y = static_cast<float>(y);
      kp.response = r;
      out.push_back(kp);
    }
  }
  if (ops) *ops += work;
  return out;
}

float harris_response(const img::Image& gray, int x, int y) {
  // The window's central differences reach 4 pixels from (x, y).
  if (x >= 4 && y >= 4 && x + 4 < gray.width() && y + 4 < gray.height()) {
    const std::ptrdiff_t ch = gray.channels();
    const std::ptrdiff_t stride = gray.width() * ch;
    const std::uint8_t* p =
        gray.data().data() + (y * stride + static_cast<std::ptrdiff_t>(x) * ch);
    return harris_window(
        [p, ch, stride](int dx, int dy) { return p[dy * stride + dx * ch]; });
  }
  return harris_window([&gray, x, y](int dx, int dy) {
    return gray.at_clamped(x + dx, y + dy);
  });
}

}  // namespace bees::feat
