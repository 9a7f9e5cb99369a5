#include "features/fast.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/// Whether the circle pixels more than `t` brighter, or those more than
/// `t` darker, than the centre `p` hold a circular run of 9.  For t >= 0
/// these are segment_score's +1 and -1 states, and every pixel in a run
/// adds at least 1 to the arc sum, so segment_score is positive exactly
/// when this holds.
bool has_arc9(const std::uint8_t* p, const CircleOffsets& off, int t) {
  const int center = *p;
  std::uint32_t brighter = 0, darker = 0;
  for (std::size_t i = 0; i < off.size(); ++i) {
    const int d = p[off[i]] - center;
    brighter |= std::uint32_t{d > t} << i;
    darker |= std::uint32_t{d < -t} << i;
  }
  const auto run9 = [](std::uint32_t bits) {
    const std::uint32_t twice = bits | bits << 16;  // runs may wrap
    std::uint32_t run = twice & twice >> 1;  // bit i: bits i..i+1 all set
    run &= run >> 2;                         // i..i+3
    run &= run >> 4;                         // i..i+7
    return (run & twice >> 8) != 0;          // i..i+8
  };
  return run9(brighter) || run9(darker);
}

/// Sixteen gray pixels, one per byte lane.  GCC vector extensions lower
/// these to SSE2 on x86-64 and NEON on AArch64, both baseline, so the
/// pre-test needs no runtime dispatch.  A comparison yields 0 or -1 lanes.
using Bytes16 = std::uint8_t __attribute__((vector_size(16)));
using Mask16 = std::int8_t __attribute__((vector_size(16)));

Bytes16 load16(const std::uint8_t* p) {
  Bytes16 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The compass pre-test of the 16 pixels from `p`: lane k is -1 where at
/// least 2 of pixel k's 4 compass points are more than t brighter, or 2
/// more than t darker, than it.  `tv` holds t, 0 <= t <= 255, in every
/// lane.
Mask16 compass_pass16(const std::uint8_t* p, std::ptrdiff_t north,
                      std::ptrdiff_t east, std::ptrdiff_t south,
                      std::ptrdiff_t west, Bytes16 tv) {
  const Bytes16 c = load16(p);
  // v - c > t iff v > c + t, unless c + t wraps past 255 and no v can be;
  // c - v > t iff v < c - t, unless c - t wraps below 0 and none can be.
  const Bytes16 hi = c + tv, lo = c - tv;
  const Bytes16 vn = load16(p + north), ve = load16(p + east),
                vs = load16(p + south), vw = load16(p + west);
  // Minus the number of brighter and of darker compass points.
  const Mask16 brighter = (vn > hi) + (ve > hi) + (vs > hi) + (vw > hi);
  const Mask16 darker = (vn < lo) + (ve < lo) + (vs < lo) + (vw < lo);
  return ((brighter <= -2) & (hi >= c)) | ((darker <= -2) & (lo <= c));
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

  // Response map for non-max suppression (0 = not a corner), and the
  // indices of its non-zero entries in scan order.
  const int w = gray.width(), h = gray.height(), ch = gray.channels();
  std::vector<float> response(static_cast<std::size_t>(w) * h, 0.0f);
  std::vector<std::size_t> scored;
  const CircleOffsets off = circle_offsets(gray);
  const std::ptrdiff_t north = off[0], east = off[4], south = off[8],
                       west = off[12];
  const int t = params.threshold;
  // Gray rows are pre-tested 16 pixels per step when t fits a byte.
  const bool wide = ch == 1 && t >= 0 && t <= 255;
  const Bytes16 tv = Bytes16{} + static_cast<std::uint8_t>(t);
  std::uint64_t work = 0;
  const auto record = [&](std::size_t i, float score) {
    if (score > 0) {
      response[i] = score;
      scored.push_back(i);
    }
  };
  for (int y = b; y < h - b; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * w;
    const std::uint8_t* p = gray.data().data() + row * ch;
    int x = b;
    for (; wide && x + 16 <= w - b; x += 16) {
      work += 8 * 16;
      // Lane k of the pass mask lands in byte k of `lanes`.
      static_assert(std::endian::native == std::endian::little);
      std::uint64_t lanes[2];
      const Mask16 pass = compass_pass16(p + x, north, east, south, west, tv);
      std::memcpy(lanes, &pass, sizeof lanes);
      for (int half = 0; half < 2; ++half) {
        // One set bit per passing lane: the top bit of its byte.
        for (std::uint64_t m = lanes[half] & 0x8080808080808080ull; m != 0;
             m &= m - 1) {
          const int xi = x + 8 * half + (std::countr_zero(m) >> 3);
          work += 64;
          if (has_arc9(p + xi, off, t)) {
            record(row + xi, segment_score(p + xi, off, t));
          }
        }
      }
    }
    for (; x < w - b; ++x) {
      // Quick rejection for the 9-contiguous test: an arc of >= 9 pixels
      // must contain at least 2 of the 4 compass points with the same
      // sign (the 3-of-4 variant is only valid for FAST-12).
      const std::uint8_t* q = p + static_cast<std::size_t>(x) * ch;
      const int c = *q;
      const int vn = q[north], ve = q[east], vs = q[south], vw = q[west];
      const int brighter =
          (vn - c > t) + (ve - c > t) + (vs - c > t) + (vw - c > t);
      const int darker =
          (c - vn > t) + (c - ve > t) + (c - vs > t) + (c - vw > t);
      work += 8;
      if (brighter < 2 && darker < 2) continue;
      work += 64;
      record(row + x, segment_score(q, off, t));
    }
  }

  for (const std::size_t i : scored) {
    const float r = response[i];
    if (params.nonmax_suppression) {
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        const float* nb =
            response.data() + i + static_cast<std::ptrdiff_t>(dy) * w;
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
    kp.x = static_cast<float>(i % static_cast<std::size_t>(w));
    kp.y = static_cast<float>(i / static_cast<std::size_t>(w));
    kp.response = r;
    out.push_back(kp);
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
