#include "features/global.hpp"

#include <gtest/gtest.h>

#include "imaging/synth.hpp"
#include "imaging/transform.hpp"
#include "util/rng.hpp"

namespace bees::feat {
namespace {

TEST(ColorHistogram, IsNormalized) {
  const img::Image scene = img::render_scene(img::SceneSpec{7, 18, 4}, 96, 72);
  const ColorHistogram h = color_histogram(scene);
  double sum = 0;
  for (const float v : h.bins) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(ColorHistogram, UniformColorFillsOneBin) {
  img::Image im(16, 16, 3);
  for (auto& b : im.data()) b = 255;
  const ColorHistogram h = color_histogram(im);
  int nonzero = 0;
  for (const float v : h.bins) nonzero += v > 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 1);
  EXPECT_NEAR(h.bins[ColorHistogram::kBins - 1], 1.0f, 1e-6f);
}

TEST(ColorHistogram, GrayImagesUseGrayDiagonal) {
  img::Image im(8, 8, 1);
  im.fill(0);
  const ColorHistogram h = color_histogram(im);
  EXPECT_NEAR(h.bins[0], 1.0f, 1e-6f);  // (0,0,0) cell
}

TEST(ColorHistogram, OpsCharged) {
  const img::Image scene = img::render_scene(img::SceneSpec{9, 18, 4}, 64, 48);
  std::uint64_t ops = 0;
  color_histogram(scene, &ops);
  EXPECT_EQ(ops, scene.pixel_count() * 4);
}

TEST(HistogramIntersection, IdenticalIsOne) {
  const img::Image scene = img::render_scene(img::SceneSpec{11, 18, 4}, 96, 72);
  const ColorHistogram h = color_histogram(scene);
  EXPECT_NEAR(histogram_intersection(h, h), 1.0, 1e-6);
}

TEST(HistogramIntersection, SymmetricAndBounded) {
  const ColorHistogram a =
      color_histogram(img::render_scene(img::SceneSpec{13, 18, 4}, 96, 72));
  const ColorHistogram b =
      color_histogram(img::render_scene(img::SceneSpec{17, 18, 4}, 96, 72));
  const double ab = histogram_intersection(a, b);
  EXPECT_DOUBLE_EQ(ab, histogram_intersection(b, a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(HistogramIntersection, ViewsOfSameSceneBeatDifferentScenes) {
  util::Rng rng(3);
  const img::SceneSpec spec{19, 18, 4};
  const ColorHistogram view1 = color_histogram(
      img::render_view(spec, 96, 72, img::ViewPerturbation{}, rng));
  const ColorHistogram view2 = color_histogram(
      img::render_view(spec, 96, 72, img::ViewPerturbation{}, rng));
  const ColorHistogram other =
      color_histogram(img::render_scene(img::SceneSpec{23, 18, 4}, 96, 72));
  EXPECT_GT(histogram_intersection(view1, view2),
            histogram_intersection(view1, other));
}

TEST(ColorHistogram, EmptyImageIsAllZero) {
  const ColorHistogram h = color_histogram(img::Image{});
  for (const float v : h.bins) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace bees::feat
