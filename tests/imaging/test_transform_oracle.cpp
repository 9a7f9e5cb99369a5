// Oracle tests: the library's grayscale, resize, bitmap-compression, warp
// and blur kernels must reproduce the reference loops (reference/
// afe_reference.hpp) bit for bit on randomized images of awkward shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "imaging/transform.hpp"
#include "reference/afe_reference.hpp"
#include "util/rng.hpp"

namespace bees::img {
namespace {

Image random_image(int w, int h, int channels, std::uint64_t seed) {
  Image im(w, h, channels);
  util::Rng rng(seed);
  for (auto& v : im.data()) v = static_cast<std::uint8_t>(rng.next_u64());
  return im;
}

std::string shape(const Image& im) {
  return std::to_string(im.width()) + "x" + std::to_string(im.height()) +
         "x" + std::to_string(im.channels());
}

/// 1x1, single rows and columns, and widths of every residue mod 4 (and
/// mod 8), so any blocked or vector loop over a row leaves a tail.
const std::vector<std::pair<int, int>>& shapes() {
  static const std::vector<std::pair<int, int>> s = {
      {1, 1},  {1, 7},  {7, 1},  {1, 40}, {40, 1},  {2, 3},   {3, 2},
      {5, 9},  {13, 7}, {14, 5}, {15, 6}, {16, 16}, {17, 11}, {33, 17},
      {50, 3}, {97, 61}, {269, 202}};
  return s;
}

// The kernels and the reference loops both round a * b + c twice, as the
// source reads.  A build that fuses it into one FMA rounding (GCC's
// default in C++ wherever the target has FMA) moves output bits, which
// the build rules out with -ffp-contract=off.  The inputs are read through
// volatile so the compiler cannot fold the expression.
TEST(TransformOracle, MultiplyAddRoundsTwice) {
  volatile double one = 1.0, eps = 0x1p-30;
  const double a = one + eps, b = one + eps, c = -one;
  EXPECT_EQ(a * b + c, 0x1p-29);  // an FMA gives 2^-29 + 2^-60
}

TEST(TransformOracle, ToGrayMatchesReference) {
  std::uint64_t seed = 1;
  for (const auto& [w, h] : shapes()) {
    for (int ch : {1, 3}) {
      const Image src = random_image(w, h, ch, seed++);
      EXPECT_TRUE(to_gray(src) == ref::to_gray(src)) << shape(src);
    }
  }
}

TEST(TransformOracle, ResizeMatchesReference) {
  std::uint64_t seed = 100;
  for (const auto& [w, h] : shapes()) {
    for (int ch : {1, 3}) {
      const Image src = random_image(w, h, ch, seed++);
      // 1-pixel targets, identity, upscale, downscale, mixed, and the
      // pyramid's 0.8 step.
      const std::vector<std::pair<int, int>> targets = {
          {1, 1},
          {1, h},
          {w, 1},
          {w, h},
          {2 * w + 1, 3 * h},
          {std::max(1, w / 2), std::max(1, h / 3)},
          {std::max(1, w * 3 / 5), h + 2},
          {std::max(1, w * 8 / 10), std::max(1, h * 8 / 10)}};
      for (const auto& [tw, th] : targets) {
        EXPECT_TRUE(resize(src, tw, th) == ref::resize(src, tw, th))
            << shape(src) << " -> " << tw << "x" << th;
      }
    }
  }
}

TEST(TransformOracle, BitmapCompressMatchesReferenceAtEveryEacLevel) {
  std::uint64_t seed = 200;
  for (const auto& [w, h] : {std::pair{269, 202}, std::pair{97, 61},
                             std::pair{320, 240}}) {
    for (int ch : {1, 3}) {
      const Image src = random_image(w, h, ch, seed++);
      for (double p : {0.0, 0.1, 0.2, 0.3, 0.4}) {
        const Image got = bitmap_compress(src, p);
        EXPECT_TRUE(got == ref::resize(src, got.width(), got.height()))
            << shape(src) << " proportion " << p;
      }
    }
  }
}

TEST(TransformOracle, WarpAffineMatchesReference) {
  std::uint64_t seed = 400;
  for (const auto& [w, h] : shapes()) {
    for (int ch : {1, 3}) {
      const Image src = random_image(w, h, ch, seed++);
      // Small view perturbations, and a map that samples far outside.
      for (const Affine& m :
           {Affine::rotation_about(w / 2.0, h / 2.0, 0.13, 1.07, 1.5, -2.25),
            Affine::rotation_about(0, 0, 2.5, 0.3, 3 * w, -2 * h)}) {
        EXPECT_TRUE(warp_affine(src, m) == ref::warp_affine(src, m))
            << shape(src);
      }
    }
  }
}

TEST(TransformOracle, GaussianBlurMatchesReference) {
  std::uint64_t seed = 300;
  for (const auto& [w, h] : shapes()) {
    for (int ch : {1, 3}) {
      const Image src = random_image(w, h, ch, seed++);
      for (double sigma : {0.5, 1.0, 1.6, 3.0}) {
        EXPECT_TRUE(gaussian_blur(src, sigma) ==
                    ref::gaussian_blur(src, sigma))
            << shape(src) << " sigma " << sigma;
      }
    }
  }
}

}  // namespace
}  // namespace bees::img
