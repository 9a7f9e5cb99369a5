// The ANN candidate-pruning front end: budget sizing, row purity (the
// shard-invariance precondition), insertion order, and agreement of the
// pruned query path with the exhaustive scan on matching views.
#include "index/ann.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "index/feature_index.hpp"
#include "util/rng.hpp"

namespace bees::idx {
namespace {

feat::BinaryFeatures make_view(std::uint64_t scene, std::uint64_t salt) {
  util::Rng rng(scene * 1000 + salt);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{scene, 18, 4}, 200, 150, pert, rng));
}

AnnParams small_ann() {
  AnnParams ann;
  ann.enabled = true;
  ann.vocabulary.branching = 4;
  ann.vocabulary.depth = 2;
  ann.vocabulary_sample = 256;
  return ann;
}

TEST(AnnShortlistBudget, GrowsWithRecallTarget) {
  // floor / (1 - r): the default 0.95 target widens 16 to 320.
  EXPECT_EQ(ann_shortlist_budget(16, 0.95), 320u);
  EXPECT_EQ(ann_shortlist_budget(16, 0.0), 16u);
  EXPECT_EQ(ann_shortlist_budget(16, 0.5), 32u);
  // Targets are clamped at 0.995 so the budget cannot blow up unboundedly.
  EXPECT_EQ(ann_shortlist_budget(16, 1.0), ann_shortlist_budget(16, 0.995));
  EXPECT_EQ(ann_shortlist_budget(16, 0.995), 3200u);
  // Degenerate max_candidates still yields at least one candidate.
  EXPECT_EQ(ann_shortlist_budget(0, 0.0), 1u);
}

TEST(AnnShortlistBudget, CandidateBudgetDispatchesOnAnnFlag) {
  FeatureIndexParams params;
  EXPECT_EQ(candidate_budget(params), 16u);  // exact path: top-k floor
  params.ann.enabled = true;
  EXPECT_EQ(candidate_budget(params),
            ann_shortlist_budget(params.max_candidates, kDefaultRecallTarget));
}

TEST(AnnFrontEnd, RowsArePureFunctionsOfParams) {
  // Two independently constructed front ends must assign identical rows:
  // the tree is trained from the seed, never from inserted data.  This is
  // the property that makes per-shard scores merge shard-invariantly.
  AnnFrontEnd a(small_ann());
  AnnFrontEnd b(small_ann());
  const auto features = make_view(7, 0);
  const AnnFrontEnd::Row ra = a.make_row(features.descriptors);
  const AnnFrontEnd::Row rb = b.make_row(features.descriptors);
  EXPECT_EQ(ra.band_signatures, rb.band_signatures);
  EXPECT_EQ(ra.words, rb.words);
  // Inserting unrelated images into `a` must not change what it computes
  // for the same query.
  a.insert(0, make_view(50, 0).descriptors);
  a.insert(1, make_view(51, 0).descriptors);
  const AnnFrontEnd::Row after = a.make_row(features.descriptors);
  EXPECT_EQ(after.band_signatures, ra.band_signatures);
  EXPECT_EQ(after.words, ra.words);
}

TEST(AnnFrontEnd, InsertRowRejectsMalformedRows) {
  AnnFrontEnd ann(small_ann());
  ann.insert(0, make_view(1, 0).descriptors);
  EXPECT_THROW(ann.insert(2, make_view(2, 0).descriptors),
               std::invalid_argument);  // out of order
}

TEST(AnnFrontEnd, CollectSurfacesTheMatchingScene) {
  AnnFrontEnd ann(small_ann());
  for (std::uint64_t s = 0; s < 8; ++s) {
    ann.insert(static_cast<ImageId>(s), make_view(20 + s, 0).descriptors);
  }
  // Querying with the stored view itself must score image 3 strictly
  // highest: every band collides (8 votes per band) and every word is
  // shared.  (The front end only shortlists — rank-1 on *perturbed* views
  // is the rescore stage's job, covered by PrunedQueryAgreesWithExactScan.)
  std::vector<std::uint32_t> scores;
  ann.collect(make_view(23, 0).descriptors, scores);
  ASSERT_EQ(scores.size(), ann.image_count());
  ASSERT_GT(scores[3], 0u);
  for (std::size_t id = 0; id < scores.size(); ++id) {
    if (id != 3) {
      EXPECT_LT(scores[id], scores[3]) << "image " << id;
    }
  }
  // A perturbed second view of the scene still reaches its image through
  // the inverted file: the shortlist contains it, which is all the recall
  // argument needs.
  std::vector<std::uint32_t> perturbed;
  ann.collect(make_view(23, 1).descriptors, perturbed);
  ASSERT_EQ(perturbed.size(), ann.image_count());
  EXPECT_GT(perturbed[3], 0u);
}

TEST(FeatureIndexAnn, PrunedQueryAgreesWithExactScan) {
  FeatureIndexParams params;
  params.ann = small_ann();
  FeatureIndex index(params);
  std::vector<ImageId> ids;
  for (std::uint64_t s = 0; s < 10; ++s) {
    ids.push_back(index.insert(make_view(40 + s, 0)));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    const auto q = make_view(40 + s, 1);
    const QueryResult pruned = index.query(q);
    const QueryResult exact = index.query_exact(q);
    EXPECT_EQ(pruned.best_id, exact.best_id) << "scene " << s;
    EXPECT_NEAR(pruned.max_similarity, exact.max_similarity, 1e-12);
    // The point of the front end: strictly fewer exact rescores.
    EXPECT_LE(pruned.candidates_checked, exact.candidates_checked);
  }
}

TEST(FeatureIndexAnn, WorksWithoutDescriptorLsh) {
  // The million-image configuration: descriptor LSH off, ANN only.
  FeatureIndexParams params;
  params.ann = small_ann();
  FeatureIndex index(params);
  std::vector<ImageId> ids;
  for (std::uint64_t s = 0; s < 6; ++s) {
    ids.push_back(index.insert(make_view(80 + s, 0)));
  }
  EXPECT_GT(index.descriptor_count(), 0u);  // counter survives LSH being off
  for (std::uint64_t s = 0; s < 6; ++s) {
    const QueryResult r = index.query(make_view(80 + s, 1));
    EXPECT_EQ(r.best_id, ids[s]) << "scene " << s;
  }
}

TEST(FeatureIndexAnn, ShardedScoresMergeToSingleIndexShortlist) {
  // Split the corpus across two indices (even/odd ids) and check that the
  // merged per-shard candidate lists reproduce the single-index shortlist
  // — the exact merge the serving cluster performs.
  FeatureIndexParams params;
  params.ann = small_ann();
  FeatureIndex whole(params), even(params), odd(params);
  std::vector<std::pair<int, ImageId>> owner;  // gid -> (shard, local)
  for (std::uint64_t s = 0; s < 12; ++s) {
    const auto f = make_view(100 + s, 0);
    whole.insert(f);
    if (s % 2 == 0) {
      owner.emplace_back(0, even.insert(f));
    } else {
      owner.emplace_back(1, odd.insert(f));
    }
  }
  const auto q = make_view(105, 1);
  auto merged = even.candidates(q);
  for (auto& [local, score] : merged) {
    local = static_cast<ImageId>(local * 2);  // shard-local -> global id
  }
  for (const auto& [local, score] : odd.candidates(q)) {
    merged.emplace_back(static_cast<ImageId>(local * 2 + 1), score);
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const std::size_t budget = candidate_budget(params);
  if (merged.size() > budget) merged.resize(budget);
  EXPECT_EQ(merged, whole.candidates(q));
}

}  // namespace
}  // namespace bees::idx
