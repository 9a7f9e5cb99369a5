#include "cloud/server.hpp"

#include <gtest/gtest.h>

#include "features/orb.hpp"
#include "features/pca.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "util/rng.hpp"

namespace bees::cloud {
namespace {

feat::BinaryFeatures orb_of(std::uint64_t seed) {
  return feat::extract_orb(
      img::render_scene(img::SceneSpec{seed, 18, 4}, 200, 150));
}

TEST(Server, StartsEmpty) {
  Server s;
  EXPECT_EQ(s.stats().images_stored, 0u);
  EXPECT_EQ(s.stats().unique_locations, 0u);
  EXPECT_EQ(s.stats().image_bytes_received, 0.0);
}

TEST(Server, StoreBinaryCountsBytesAndImages) {
  Server s;
  s.store_binary(orb_of(1), {.image_bytes = 1000.0, .geo = {}});
  s.store_binary(orb_of(2), {.image_bytes = 2000.0, .geo = {}});
  EXPECT_EQ(s.stats().images_stored, 2u);
  EXPECT_DOUBLE_EQ(s.stats().image_bytes_received, 3000.0);
}

TEST(Server, QueryFindsStoredSimilarImage) {
  Server s;
  util::Rng rng(3);
  const img::SceneSpec spec{33, 18, 4};
  img::ViewPerturbation pert;
  const auto stored =
      feat::extract_orb(img::render_view(spec, 200, 150, pert, rng));
  const auto query =
      feat::extract_orb(img::render_view(spec, 200, 150, pert, rng));
  s.store_binary(stored, {.image_bytes = 500.0, .geo = {}});
  const idx::QueryResult r = s.query_binary_batch({{&query, 123.0}}).front();
  EXPECT_GT(r.max_similarity, 0.02);
  EXPECT_EQ(s.stats().binary_queries, 1u);
  EXPECT_DOUBLE_EQ(s.stats().feature_bytes_received, 123.0);
}

TEST(Server, UniqueLocationsCountDistinctGeotags) {
  Server s;
  const idx::GeoTag a{2.32, 48.86, true};
  const idx::GeoTag a_same{2.32, 48.86, true};
  const idx::GeoTag b{2.33, 48.87, true};
  const idx::GeoTag none{};  // invalid
  s.store_plain({100.0, a});
  s.store_plain({100.0, a_same});
  s.store_plain({100.0, b});
  s.store_plain({100.0, none});
  EXPECT_EQ(s.stats().images_stored, 4u);
  EXPECT_EQ(s.stats().unique_locations, 2u);
}

TEST(Server, SeedingDoesNotCountAsReceived) {
  Server s;
  s.seed_binary(orb_of(4));
  EXPECT_EQ(s.stats().images_stored, 0u);
  EXPECT_EQ(s.binary_index().image_count(), 1u);
}

TEST(Server, FloatPathWorks) {
  Server s;
  util::Rng rng(5);
  const img::SceneSpec spec{44, 18, 4};
  img::ViewPerturbation pert;
  const auto sift_a =
      feat::extract_sift(img::render_view(spec, 200, 150, pert, rng));
  const auto sift_b =
      feat::extract_sift(img::render_view(spec, 200, 150, pert, rng));
  s.store_float(sift_a, {.image_bytes = 600.0, .geo = {}});
  const idx::QueryResult r = s.query_float(sift_b, 50.0);
  EXPECT_GT(r.max_similarity, 0.01);
  EXPECT_EQ(s.stats().float_queries, 1u);
}

TEST(LocationKey, QuantizesNearbyPoints) {
  const idx::GeoTag a{2.320000, 48.860000, true};
  const idx::GeoTag nearby{2.3200000001, 48.8600000001, true};
  const idx::GeoTag far{2.321, 48.861, true};
  EXPECT_EQ(idx::location_key(a), idx::location_key(nearby));
  EXPECT_NE(idx::location_key(a), idx::location_key(far));
}

TEST(LocationKey, NegativeCoordinatesSupported) {
  const idx::GeoTag west{-73.98, 40.75, true};
  const idx::GeoTag east{73.98, 40.75, true};
  EXPECT_NE(idx::location_key(west), idx::location_key(east));
}

}  // namespace
}  // namespace bees::cloud
