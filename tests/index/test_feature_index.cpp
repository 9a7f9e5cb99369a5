#include "index/feature_index.hpp"

#include <gtest/gtest.h>

#include "features/orb.hpp"
#include "features/pca.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "util/rng.hpp"

namespace bees::idx {
namespace {

/// Builds (first view, second view) ORB feature pairs for n scenes.
struct ScenePairs {
  std::vector<feat::BinaryFeatures> stored;
  std::vector<feat::BinaryFeatures> queries;
};

ScenePairs make_pairs(int n, std::uint64_t seed) {
  ScenePairs out;
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  for (int s = 0; s < n; ++s) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(seed * 100 + s), 18,
                              4};
    out.stored.push_back(
        feat::extract_orb(img::render_view(spec, 240, 180, pert, rng)));
    out.queries.push_back(
        feat::extract_orb(img::render_view(spec, 240, 180, pert, rng)));
  }
  return out;
}

TEST(FeatureIndex, EmptyIndexReturnsNothing) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(1, 1);
  const QueryResult r = index.query(pairs.queries[0]);
  EXPECT_TRUE(r.hits.empty());
  EXPECT_EQ(r.max_similarity, 0.0);
  EXPECT_EQ(r.best_id, kInvalidImageId);
}

TEST(FeatureIndex, EmptyQueryReturnsNothing) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(1, 2);
  index.insert(pairs.stored[0]);
  EXPECT_TRUE(index.query(feat::BinaryFeatures{}).hits.empty());
}

TEST(FeatureIndex, FindsTheSimilarStoredImage) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(5, 3);
  std::vector<ImageId> ids;
  for (const auto& f : pairs.stored) ids.push_back(index.insert(f));
  for (std::size_t s = 0; s < pairs.queries.size(); ++s) {
    const QueryResult r = index.query(pairs.queries[s]);
    EXPECT_EQ(r.best_id, ids[s]) << "query " << s;
    EXPECT_GT(r.max_similarity, 0.03);
  }
}

TEST(FeatureIndex, LshAgreesWithExactScan) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(6, 4);
  for (const auto& f : pairs.stored) index.insert(f);
  for (const auto& q : pairs.queries) {
    const QueryResult fast = index.query(q);
    const QueryResult exact = index.query_exact(q);
    EXPECT_EQ(fast.best_id, exact.best_id);
    EXPECT_NEAR(fast.max_similarity, exact.max_similarity, 1e-12);
  }
}

TEST(FeatureIndex, ExactScanChecksEverything) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(4, 5);
  for (const auto& f : pairs.stored) index.insert(f);
  const QueryResult exact = index.query_exact(pairs.queries[0]);
  EXPECT_EQ(exact.candidates_checked, 4u);
}

TEST(FeatureIndex, TopKBoundsHitCount) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(8, 6);
  for (const auto& f : pairs.stored) index.insert(f);
  const QueryResult r = index.query(pairs.queries[0], 3);
  EXPECT_LE(r.hits.size(), 3u);
  // Hits are ranked most-similar first.
  for (std::size_t i = 1; i < r.hits.size(); ++i) {
    EXPECT_GE(r.hits[i - 1].similarity, r.hits[i].similarity);
  }
}

TEST(FeatureIndex, StoresGeoAndBytes) {
  FeatureIndex index;
  const ScenePairs pairs = make_pairs(1, 7);
  GeoTag geo{2.32, 48.86, true};
  const ImageId id = index.insert(pairs.stored[0], geo);
  EXPECT_EQ(index.geo_of(id), geo);
  EXPECT_EQ(index.image_count(), 1u);
  EXPECT_EQ(index.wire_bytes(), pairs.stored[0].wire_bytes());
  EXPECT_EQ(index.descriptor_count(), pairs.stored[0].size());
}

TEST(FeatureIndex, BudgetCutThroughEqualVotesKeepsLowestIds) {
  // Images 1-6 store the same descriptors, so the query gives them equal
  // votes; image 7 stores those plus the query's extra descriptors and
  // outvotes them.  A budget of 3 cuts through the tied group: the ranking
  // is (votes desc, id asc), so 7 leads and the lowest tied ids follow.
  util::Rng rng(31);
  const auto random_set = [&rng](std::size_t n) {
    std::vector<feat::Descriptor256> out(n);
    for (auto& d : out) {
      for (auto& lane : d.bits) lane = rng.next_u64();
    }
    return out;
  };
  FeatureIndexParams params;
  params.max_candidates = 3;
  FeatureIndex index(params);
  feat::BinaryFeatures unrelated;
  unrelated.descriptors = random_set(20);
  feat::BinaryFeatures shared;
  shared.descriptors = random_set(20);
  feat::BinaryFeatures query = shared;
  for (const auto& d : random_set(5)) query.descriptors.push_back(d);
  index.insert(unrelated);
  for (int copy = 0; copy < 6; ++copy) index.insert(shared);
  index.insert(query);

  const auto ranked = index.candidates(query);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 7u);
  EXPECT_EQ(ranked[1].first, 1u);
  EXPECT_EQ(ranked[2].first, 2u);
  EXPECT_GT(ranked[0].second, ranked[1].second);
  EXPECT_EQ(ranked[1].second, ranked[2].second);
  EXPECT_EQ(index.query(query).candidates_checked, 3u);
}

TEST(FeatureIndex, UnrelatedQueryScoresBelowPaperThreshold) {
  FeatureIndex index;
  const ScenePairs stored = make_pairs(4, 8);
  for (const auto& f : stored.stored) index.insert(f);
  const ScenePairs unrelated = make_pairs(1, 99);
  const QueryResult r = index.query(unrelated.queries[0]);
  // The EDR threshold band is 0.013..0.019; unrelated content must not
  // trip it systematically.
  EXPECT_LT(r.max_similarity, 0.05);
}

TEST(FloatFeatureIndex, FindsSimilarImage) {
  util::Rng rng(9);
  img::ViewPerturbation pert;
  std::vector<feat::FloatFeatures> stored, queries;
  for (int s = 0; s < 3; ++s) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(900 + s), 18, 4};
    stored.push_back(
        feat::extract_sift(img::render_view(spec, 200, 150, pert, rng)));
    queries.push_back(
        feat::extract_sift(img::render_view(spec, 200, 150, pert, rng)));
  }
  FloatFeatureIndex index;
  std::vector<ImageId> ids;
  for (const auto& f : stored) ids.push_back(index.insert(f));
  for (std::size_t s = 0; s < queries.size(); ++s) {
    const QueryResult r = index.query(queries[s]);
    EXPECT_EQ(r.best_id, ids[s]);
    EXPECT_GT(r.max_similarity, 0.02);
  }
  EXPECT_EQ(index.image_count(), 3u);
  EXPECT_GT(index.wire_bytes(), 0u);
}

TEST(FloatFeatureIndex, EmptyCases) {
  FloatFeatureIndex index;
  feat::FloatFeatures q;
  q.dim = 128;
  EXPECT_TRUE(index.query(q).hits.empty());
}

}  // namespace
}  // namespace bees::idx
