// The parallel candidate-rescore contract: FeatureIndex queries return
// identical QueryResults (hits, ops, candidates_checked) for every rescore
// pool size, because the candidate partition is static and per-candidate
// slots are merged in candidate order.  Also covers the
// deterministic tie-break (equal similarities rank by ascending ImageId)
// and the rescore-stage timer metric.
#include <gtest/gtest.h>

#include "index/feature_index.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace bees::idx {
namespace {

feat::Descriptor256 random_descriptor(util::Rng& rng) {
  feat::Descriptor256 d;
  for (auto& lane : d.bits) lane = rng.next_u64();
  return d;
}

feat::Descriptor256 flip_bits(feat::Descriptor256 d, int count,
                              util::Rng& rng) {
  for (int i = 0; i < count; ++i) {
    const int bit = static_cast<int>(rng.index(256));
    d.bits[static_cast<std::size_t>(bit >> 6)] ^= std::uint64_t{1}
                                                  << (bit & 63);
  }
  return d;
}

/// A synthetic feature set of `n` descriptors: some perturbed copies of
/// `base` (similar images share matches), the rest random.
feat::BinaryFeatures features_near(const std::vector<feat::Descriptor256>&
                                       base,
                                   std::size_t n, int flips, util::Rng& rng) {
  feat::BinaryFeatures f;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < base.size()) {
      f.descriptors.push_back(flip_bits(base[i], flips, rng));
    } else {
      f.descriptors.push_back(random_descriptor(rng));
    }
    f.keypoints.emplace_back();
  }
  return f;
}

void expect_same_result(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].id, b.hits[i].id);
    EXPECT_DOUBLE_EQ(a.hits[i].similarity, b.hits[i].similarity);
  }
  EXPECT_DOUBLE_EQ(a.max_similarity, b.max_similarity);
  EXPECT_EQ(a.best_id, b.best_id);
  EXPECT_EQ(a.candidates_checked, b.candidates_checked);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(ParallelRescore, BinaryQueryIdenticalAcrossThreadCounts) {
  util::Rng rng(2024);
  std::vector<feat::Descriptor256> base;
  for (int i = 0; i < 40; ++i) base.push_back(random_descriptor(rng));
  std::vector<feat::BinaryFeatures> stored;
  for (int i = 0; i < 24; ++i) {
    stored.push_back(features_near(base, 40, 8 + i, rng));
  }
  const feat::BinaryFeatures query = features_near(base, 40, 6, rng);

  std::vector<QueryResult> results;
  for (const int threads : {1, 2, 8}) {
    FeatureIndexParams params;
    params.rescore_threads = threads;
    params.max_candidates = 16;
    FeatureIndex index(params);
    for (const auto& f : stored) index.insert(f);
    results.push_back(index.query(query));
    // query_exact rescores every stored image: a wider partition.
    results.push_back(index.query_exact(query));
  }
  for (std::size_t i = 2; i < results.size(); i += 2) {
    expect_same_result(results[i], results[0]);
    expect_same_result(results[i + 1], results[1]);
  }
  EXPECT_FALSE(results[0].hits.empty());
  EXPECT_GT(results[0].ops, 0u);
}

TEST(ParallelRescore, EqualSimilaritiesRankByAscendingId) {
  util::Rng rng(31);
  // Four identical stored images: every hit ties at the same similarity,
  // so the ranking must fall back to ascending ImageId.
  std::vector<feat::Descriptor256> base;
  for (int i = 0; i < 20; ++i) base.push_back(random_descriptor(rng));
  feat::BinaryFeatures same;
  same.descriptors = base;
  same.keypoints.resize(base.size());

  FeatureIndexParams params;
  params.rescore_threads = 1;
  FeatureIndex index(params);
  for (int i = 0; i < 4; ++i) index.insert(same);
  const QueryResult result = index.query_exact(same);
  ASSERT_EQ(result.hits.size(), 4u);
  for (std::size_t i = 0; i < result.hits.size(); ++i) {
    EXPECT_EQ(result.hits[i].id, static_cast<ImageId>(i));
    EXPECT_DOUBLE_EQ(result.hits[i].similarity, 1.0);
  }
  EXPECT_EQ(result.best_id, 0u);
}

TEST(ParallelRescore, RescoreBatchMatchesSerialRescore) {
  util::Rng rng(909);
  std::vector<feat::Descriptor256> base;
  for (int i = 0; i < 30; ++i) base.push_back(random_descriptor(rng));
  std::vector<feat::BinaryFeatures> stored;
  for (int i = 0; i < 20; ++i) {
    stored.push_back(features_near(base, 30, 6 + i, rng));
  }
  std::vector<feat::BinaryFeatures> queries;
  for (int q = 0; q < 5; ++q) {
    queries.push_back(features_near(base, 30, 4 + 3 * q, rng));
  }

  for (const int threads : {1, 4}) {
    FeatureIndexParams params;
    params.rescore_threads = threads;
    FeatureIndex index(params);
    for (const auto& f : stored) index.insert(f);

    // Overlapping candidate lists of different lengths (including one
    // empty), so the flattened (query, candidate) split crosses query
    // boundaries and the per-query assembly still walks each query's own
    // list.
    std::vector<const feat::BinaryFeatures*> query_ptrs;
    std::vector<std::vector<ImageId>> candidates;
    std::vector<int> top_k;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      query_ptrs.push_back(&queries[q]);
      std::vector<ImageId> list;
      for (std::size_t i = q; i < stored.size(); i += q + 1) {
        list.push_back(static_cast<ImageId>(i));
      }
      if (q == 3) list.clear();
      candidates.push_back(std::move(list));
      top_k.push_back(1 + static_cast<int>(q));
    }

    const std::vector<QueryResult> batched =
        index.rescore_batch(query_ptrs, candidates, top_k);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const QueryResult serial =
          index.rescore(queries[q], candidates[q], top_k[q]);
      expect_same_result(batched[q], serial);
    }
  }
}

TEST(ParallelRescore, RescoreTimerVisibleInMetrics) {
  util::Rng rng(64);
  feat::BinaryFeatures f;
  for (int i = 0; i < 10; ++i) {
    f.descriptors.push_back(random_descriptor(rng));
    f.keypoints.emplace_back();
  }
  FeatureIndex index;
  index.insert(f);

  obs::MetricsRegistry::global().reset();
  obs::set_enabled(true);
  index.query(f);
  obs::set_enabled(false);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  ASSERT_TRUE(snap.histograms.count("cloud.query.rescore.seconds"));
  EXPECT_GE(snap.histograms.at("cloud.query.rescore.seconds").count, 1u);
}

}  // namespace
}  // namespace bees::idx
