// Oracle tests: FAST, Harris, the intensity centroid and the whole ORB
// extractor must reproduce the reference loops (reference/
// afe_reference.hpp) bit for bit, on patches that cross the image border
// too, and extract_orb's output on fixed scenes is pinned by digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "features/fast.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "imaging/transform.hpp"
#include "reference/afe_reference.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bees::feat {
namespace {

/// Random bytes, lightly blurred so FAST finds corners of every strength.
img::Image random_image(int w, int h, int channels, std::uint64_t seed) {
  img::Image im(w, h, channels);
  util::Rng rng(seed);
  for (auto& v : im.data()) v = static_cast<std::uint8_t>(rng.next_u64());
  return img::gaussian_blur(im, 0.7);
}

std::string shape(const img::Image& im) {
  return std::to_string(im.width()) + "x" + std::to_string(im.height()) +
         "x" + std::to_string(im.channels());
}

void expect_same_keypoints(const std::vector<Keypoint>& got,
                           const std::vector<Keypoint>& want,
                           const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << what << " keypoint " << i;
    EXPECT_EQ(got[i].y, want[i].y) << what << " keypoint " << i;
    EXPECT_EQ(got[i].response, want[i].response) << what << " keypoint " << i;
    EXPECT_EQ(got[i].angle, want[i].angle) << what << " keypoint " << i;
    EXPECT_EQ(got[i].level, want[i].level) << what << " keypoint " << i;
    EXPECT_EQ(got[i].scale, want[i].scale) << what << " keypoint " << i;
  }
}

void expect_same_features(const BinaryFeatures& got,
                          const BinaryFeatures& want,
                          const std::string& what) {
  expect_same_keypoints(got.keypoints, want.keypoints, what);
  EXPECT_TRUE(got.descriptors == want.descriptors) << what;
  EXPECT_EQ(got.stats.ops, want.stats.ops) << what;
  EXPECT_EQ(got.stats.keypoint_count, want.stats.keypoint_count) << what;
}

TEST(OrbOracle, DetectFastMatchesReference) {
  std::uint64_t seed = 1;
  // Gray rows are pre-tested 16 pixels per step and finished one by one;
  // the sizes from 21x37 on scan interiors, w - 2 * max(border, 3), of
  // 15-17 and 31-33 pixels (border 0 or 3 from 21 to 39 wide, border 16
  // from 47 to 65), so each edge of that split is crossed.  Thresholds
  // outside 0-255 take the one-by-one path throughout.
  for (const auto& [w, h] :
       {std::pair{7, 7}, std::pair{13, 10}, std::pair{41, 37},
        std::pair{97, 61}, std::pair{269, 202}, std::pair{21, 37},
        std::pair{22, 37}, std::pair{23, 37}, std::pair{37, 37},
        std::pair{38, 37}, std::pair{39, 37}, std::pair{47, 40},
        std::pair{48, 40}, std::pair{49, 40}, std::pair{63, 40},
        std::pair{64, 40}, std::pair{65, 40}}) {
    for (int ch : {1, 3}) {
      const img::Image im = random_image(w, h, ch, seed++);
      for (int threshold : {-1, 0, 1, 5, 20, 40, 127, 128, 254, 255, 300}) {
        for (int border : {0, 3, 16}) {
          for (bool nms : {true, false}) {
            FastParams p;
            p.threshold = threshold;
            p.border = border;
            p.nonmax_suppression = nms;
            std::uint64_t ops = 0, ref_ops = 0;
            const std::string what = shape(im) + " t" +
                                     std::to_string(threshold) + " b" +
                                     std::to_string(border);
            expect_same_keypoints(
                detect_fast(im, p, &ops),
                ref::detect_fast(im, threshold, border, nms, &ref_ops), what);
            EXPECT_EQ(ops, ref_ops) << what;
          }
        }
      }
    }
  }
}

TEST(OrbOracle, HarrisMatchesReferenceAtEveryPixelIncludingBorders) {
  std::uint64_t seed = 50;
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{1, 12},
                             std::pair{12, 1}, std::pair{9, 9},
                             std::pair{23, 14}}) {
    for (int ch : {1, 3}) {
      const img::Image im = random_image(w, h, ch, seed++);
      for (int y = -2; y < h + 2; ++y) {
        for (int x = -2; x < w + 2; ++x) {
          EXPECT_EQ(harris_response(im, x, y),
                    ref::harris_response(im, x, y))
              << shape(im) << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(OrbOracle, CentroidMatchesReferenceWhereThePatchCrossesTheBorder) {
  std::uint64_t seed = 80;
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{5, 40},
                             std::pair{40, 5}, std::pair{37, 35}}) {
    for (int ch : {1, 3}) {
      const img::Image im = random_image(w, h, ch, seed++);
      for (int radius : {0, 1, 3, 7, 15}) {
        for (int y = -1; y <= h; ++y) {
          for (int x = -1; x <= w; ++x) {
            EXPECT_EQ(intensity_centroid_angle(im, x, y, radius),
                      ref::intensity_centroid_angle(im, x, y, radius))
                << shape(im) << " r" << radius << " at " << x << "," << y;
          }
        }
      }
    }
  }
}

TEST(OrbOracle, ExtractOrbMatchesReference) {
  std::vector<img::Image> images;
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{96, 72},
                             std::pair{161, 121}, std::pair{269, 202},
                             std::pair{480, 360}}) {
    images.push_back(img::render_scene(
        img::SceneSpec{static_cast<std::uint64_t>(w), 18, 4}, w, h));
    images.push_back(img::to_gray(images.back()));
  }
  images.push_back(random_image(150, 113, 3, 7));
  images.push_back(random_image(77, 59, 1, 8));

  OrbParams dense;
  dense.max_features = 2000;
  dense.fast_threshold = 10;
  // Rotated BRIEF offsets reach 18 pixels (13 * sqrt(2), rounded), so
  // steered BRIEF reads a keypoint's test pixels directly when it lies 18
  // or more pixels from every edge (x >= 18 and x + 18 < width) and
  // through the clamped read otherwise; FAST keeps keypoints 16 pixels
  // from the border.  Level-0 keypoints 17 to 20 pixels from their
  // nearest edge must occur, on both sides of that bound.
  std::array<std::size_t, 4> at_edge_distance{};  // 17, 18, 19, 20
  for (const img::Image& im : images) {
    for (const OrbParams& params : {OrbParams{}, dense}) {
      const BinaryFeatures want = ref::extract_orb(im, params);
      expect_same_features(extract_orb(im, params), want, shape(im));
      for (const Keypoint& kp : want.keypoints) {
        if (kp.level != 0) continue;
        const int x = static_cast<int>(kp.x), y = static_cast<int>(kp.y);
        const int edge = std::min(
            {x, y, im.width() - 1 - x, im.height() - 1 - y});
        if (edge >= 17 && edge <= 20) {
          ++at_edge_distance[static_cast<std::size_t>(edge - 17)];
        }
      }
    }
  }
  for (std::size_t i = 0; i < at_edge_distance.size(); ++i) {
    EXPECT_GT(at_edge_distance[i], 0u)
        << "no level-0 keypoint " << 17 + i << " pixels from an edge";
  }
}

TEST(OrbOracle, ExtractOrbAfterBitmapCompressionMatchesReference) {
  const img::Image scene =
      img::render_scene(img::SceneSpec{4242, 18, 4}, 320, 240);
  for (double p : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    const img::Image small = img::bitmap_compress(scene, p);
    expect_same_features(extract_orb(small), ref::extract_orb(small),
                         "proportion " + std::to_string(p));
  }
}

/// FNV-1a-64 of every output field of an extraction.
std::uint64_t digest(const BinaryFeatures& f) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  for (const Keypoint& kp : f.keypoints) {
    put(&kp.x, sizeof kp.x);
    put(&kp.y, sizeof kp.y);
    put(&kp.response, sizeof kp.response);
    put(&kp.angle, sizeof kp.angle);
    put(&kp.level, sizeof kp.level);
    put(&kp.scale, sizeof kp.scale);
  }
  for (const Descriptor256& d : f.descriptors) put(d.bits.data(), 32);
  const std::uint64_t ops = f.stats.ops;
  const std::uint64_t count = f.stats.keypoint_count;
  put(&ops, sizeof ops);
  put(&count, sizeof count);
  return util::content_hash64(bytes);
}

// Recorded from the one-pixel-at-a-time kernels the reference keeps.
TEST(OrbOracle, PinnedDigestsOnFixedScenes) {
  const img::Image rgb =
      img::render_scene(img::SceneSpec{91, 18, 4}, 240, 180);
  const img::Image eac =
      img::render_scene(img::SceneSpec{7, 14, 4}, 269, 202);
  const img::Image gray =
      img::to_gray(img::render_scene(img::SceneSpec{424, 18, 4}, 320, 240));
  EXPECT_EQ(digest(extract_orb(rgb)), 0x536e549e7fcc95ceull);
  EXPECT_EQ(digest(extract_orb(eac)), 0x85c6b6546240ee5dull);
  EXPECT_EQ(digest(extract_orb(gray)), 0xec6a56e4ac9cc4e6ull);
  EXPECT_EQ(digest(extract_orb(img::bitmap_compress(gray, 0.4))),
            0xe4a74f0a5bf9a8c8ull);
}

}  // namespace
}  // namespace bees::feat
