#include "imaging/transform.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "imaging/synth.hpp"

namespace bees::img {
namespace {

Image gradient_image(int w, int h) {
  Image im(w, h, 1);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      im.set(x, y, static_cast<std::uint8_t>((x * 255) / (w - 1)));
    }
  }
  return im;
}

TEST(ToGray, UsesBt601Weights) {
  Image rgb(1, 1, 3);
  rgb.set(0, 0, 255, 0);  // pure red
  EXPECT_NEAR(to_gray(rgb).at(0, 0), 76, 1);  // 0.299 * 255
  rgb.fill(0);
  rgb.set(0, 0, 255, 1);  // pure green
  EXPECT_NEAR(to_gray(rgb).at(0, 0), 150, 1);  // 0.587 * 255
}

TEST(ToGray, GrayPassThrough) {
  Image g(3, 3, 1);
  g.fill(42);
  EXPECT_EQ(to_gray(g), g);
}

TEST(Resize, IdentityPreservesPixels) {
  const Image src = value_noise(16, 12, 2, 77);
  const Image out = resize(src, 16, 12);
  // Identity resize through pixel-center mapping is exact.
  EXPECT_EQ(out, src);
}

TEST(Resize, HalvesDimensions) {
  const Image src = gradient_image(16, 16);
  const Image out = resize(src, 8, 8);
  EXPECT_EQ(out.width(), 8);
  EXPECT_EQ(out.height(), 8);
  // A horizontal gradient stays monotone after downscale.
  for (int x = 1; x < 8; ++x) EXPECT_GE(out.at(x, 4), out.at(x - 1, 4));
}

TEST(Resize, PreservesMeanApproximately) {
  const Image src = value_noise(64, 64, 3, 5);
  const Image out = resize(src, 32, 32);
  double mean_src = 0, mean_out = 0;
  for (const auto v : src.data()) mean_src += v;
  for (const auto v : out.data()) mean_out += v;
  mean_src /= static_cast<double>(src.data().size());
  mean_out /= static_cast<double>(out.data().size());
  EXPECT_NEAR(mean_src, mean_out, 3.0);
}

TEST(Resize, RejectsBadDimensions) {
  const Image src = gradient_image(4, 4);
  EXPECT_THROW(resize(src, 0, 4), std::invalid_argument);
  EXPECT_THROW(resize(src, 4, -1), std::invalid_argument);
}

class BitmapCompressProportions : public ::testing::TestWithParam<double> {};

TEST_P(BitmapCompressProportions, ShrinksByProportion) {
  const Image src = gradient_image(100, 80);
  const double p = GetParam();
  const Image out = bitmap_compress(src, p);
  EXPECT_NEAR(out.width(), std::max(8.0, 100.0 * (1 - p)), 1.0);
  EXPECT_NEAR(out.height(), std::max(8.0, 80.0 * (1 - p)), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitmapCompressProportions,
                         ::testing::Values(0.1, 0.2, 0.4, 0.6, 0.9));

TEST(BitmapCompress, ZeroIsCopy) {
  const Image src = gradient_image(10, 10);
  EXPECT_EQ(bitmap_compress(src, 0.0), src);
}

TEST(BitmapCompress, FlooredAtEightPixels) {
  const Image src = gradient_image(10, 10);
  const Image out = bitmap_compress(src, 0.99);
  EXPECT_GE(out.width(), 8);
  EXPECT_GE(out.height(), 8);
}

TEST(GaussianBlur, PreservesConstantImage) {
  Image im(16, 16, 1);
  im.fill(100);
  const Image out = gaussian_blur(im, 2.0);
  for (const auto v : out.data()) EXPECT_NEAR(v, 100, 1);
}

TEST(GaussianBlur, ReducesVariance) {
  const Image src = value_noise(32, 32, 4, 3);
  const Image out = gaussian_blur(src, 1.5);
  auto variance = [](const Image& im) {
    double mean = 0;
    for (const auto v : im.data()) mean += v;
    mean /= static_cast<double>(im.data().size());
    double var = 0;
    for (const auto v : im.data()) var += (v - mean) * (v - mean);
    return var / static_cast<double>(im.data().size());
  };
  EXPECT_LT(variance(out), variance(src));
}

TEST(GaussianBlur, RejectsNonPositiveSigma) {
  Image im(4, 4, 1);
  EXPECT_THROW(gaussian_blur(im, 0.0), std::invalid_argument);
  EXPECT_THROW(gaussian_blur(im, -1.0), std::invalid_argument);
}

TEST(WarpAffine, IdentityIsExact) {
  const Image src = value_noise(20, 20, 2, 9);
  const Affine identity;
  EXPECT_EQ(warp_affine(src, identity), src);
}

TEST(WarpAffine, RotationAboutCenterKeepsCenter) {
  Image src(21, 21, 1);
  src.set(10, 10, 255);
  const Affine rot = Affine::rotation_about(10, 10, M_PI / 4);
  const Image out = warp_affine(src, rot);
  EXPECT_GT(out.at(10, 10), 100);  // the center pixel stays bright
}

TEST(WarpAffine, TranslationMovesContent) {
  Image src(16, 16, 1);
  src.set(4, 4, 255);
  const Affine shift = Affine::rotation_about(8, 8, 0.0, 1.0, 3.0, 0.0);
  const Image out = warp_affine(src, shift);
  EXPECT_GT(out.at(7, 4), 200);  // moved right by ~3
}

TEST(AdjustBrightnessContrast, AppliesGainAndBias) {
  Image im(2, 1, 1);
  im.set(0, 0, 100);
  im.set(1, 0, 200);
  const Image out = adjust_brightness_contrast(im, 1.5, 10.0);
  EXPECT_EQ(out.at(0, 0), 160);
  EXPECT_EQ(out.at(1, 0), 255);  // clamped
}

TEST(AddGaussianNoise, ChangesPixelsWithBoundedDeviation) {
  util::Rng rng(31);
  Image im(32, 32, 1);
  im.fill(128);
  const Image out = add_gaussian_noise(im, 5.0, rng);
  double mean = 0;
  for (const auto v : out.data()) mean += v;
  mean /= static_cast<double>(out.data().size());
  EXPECT_NEAR(mean, 128.0, 1.5);
  EXPECT_NE(out, im);
}

}  // namespace
}  // namespace bees::img
