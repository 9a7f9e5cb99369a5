// The server-side image feature index: the data structure the paper's CBRD
// stage queries ("if there exist similar images in the servers, the image
// does not need to be uploaded").  LSH narrows a query to a handful of
// candidate images; exact Jaccard similarity (Eq. 2) is then computed
// against each candidate's stored descriptor set.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "features/keypoint.hpp"
#include "features/matching.hpp"
#include "index/ann.hpp"
#include "index/geo.hpp"
#include "index/lsh.hpp"
#include "index/types.hpp"

namespace bees::util {
class ThreadPool;
}  // namespace bees::util

namespace bees::idx {

struct FeatureIndexParams {
  LshParams lsh;
  /// Descriptor-level LSH tables: the exact-vote candidate path, and a
  /// score refiner for the ANN shortlist when `ann.enabled`.  Off saves the
  /// per-descriptor bucket storage at million-image scale; with it off,
  /// `ann.enabled` must be on for query() to see any candidates.
  bool enable_descriptor_lsh = true;
  /// ANN candidate-pruning front end (MinHash banding + vocabulary
  /// routing); see index/ann.hpp.
  AnnParams ann;
  /// Exact-rescore budget: the top candidates by LSH votes.  The ANN path
  /// widens it to ann_shortlist_budget(max_candidates, kDefaultRecallTarget).
  int max_candidates = 16;
  feat::BinaryMatchParams match;
  /// Worker threads for the exact-rescore stage: 1 = serial (no pool),
  /// 0 = hardware concurrency, n = n threads.  Any other setting than 1
  /// gives the index its own pool, created with it.  Serial is the default
  /// because a server's request workers already fill the cores; one long
  /// query with nothing else running is what a pool speeds up.  Results
  /// are identical for every setting — the candidate partition is static
  /// and per-candidate results are merged in candidate order.
  int rescore_threads = 1;
};

/// Phase-2 rescore budget for one query: max_candidates (at least 1) on
/// the exact LSH-vote path, the ANN shortlist sized at kDefaultRecallTarget
/// otherwise.  The index and the cluster frontend's merge both truncate
/// with this one function — the requirement for byte-identical sharded
/// replies.
std::size_t candidate_budget(const FeatureIndexParams& params);

/// Index over binary (ORB) feature sets.
class FeatureIndex {
 public:
  explicit FeatureIndex(const FeatureIndexParams& params = {});

  /// Stores an image's features (and optional geotag); returns its id.
  ImageId insert(feat::BinaryFeatures features, const GeoTag& geo = {});

  /// Queries with candidate generation + exact rescoring.  Candidates come
  /// from the ANN front end when `params.ann.enabled`, from descriptor-LSH
  /// votes otherwise.
  QueryResult query(const feat::BinaryFeatures& query_features,
                    int top_k = kDefaultTopK) const;

  /// Exhaustive query over every stored image (no LSH); the accuracy
  /// reference for the LSH ablation bench.
  QueryResult query_exact(const feat::BinaryFeatures& query_features,
                          int top_k = kDefaultTopK) const;

  /// Phase 1 of a query: the top candidate_budget(params) stored images,
  /// ranked (score desc, id asc).  The score is the image's LSH collision
  /// votes on the exact path; with `params.ann.enabled` it is band
  /// collisions * 8 + shared words (+ deduplicated LSH votes
  /// when the index keeps descriptor LSH tables).  Scores are pure
  /// per-(query, image) functions and the order is total, so the candidate
  /// set is a pure function of the scores: the global top-N by
  /// (score, id) is always contained in the union of each shard's local
  /// top-N, which lets a sharded deployment reproduce the single-index
  /// shortlist exactly (see index/ann.hpp).
  std::vector<std::pair<ImageId, std::uint32_t>> candidates(
      const feat::BinaryFeatures& query_features) const;

  /// Phase 2 of a query: exact Jaccard rescoring of an explicit candidate
  /// list (public so a cluster frontend can rescore a globally merged
  /// candidate set on the shard that owns the features).  A one-item
  /// rescore_batch.
  QueryResult rescore(const feat::BinaryFeatures& query_features,
                      const std::vector<ImageId>& candidates,
                      int top_k = kDefaultTopK) const;

  /// Phase 2 for several queries at once, the index's only binary rescore
  /// body.  Every (query, candidate) pair is matched against the stored
  /// descriptors in place, and the flattened pair list is split statically
  /// over the rescore pool.  results[q] is byte-identical to
  /// rescore(*queries[q], candidates[q], top_k[q]) for any rescore_threads
  /// setting: per-pair similarity and ops are pure pair functions written
  /// to disjoint slots, and each query's assembly walks its own candidate
  /// order.  `queries`, `candidates`, and `top_k` must have equal sizes.
  std::vector<QueryResult> rescore_batch(
      const std::vector<const feat::BinaryFeatures*>& queries,
      const std::vector<std::vector<ImageId>>& candidates,
      const std::vector<int>& top_k) const;

  std::size_t image_count() const noexcept { return images_.size(); }
  std::size_t descriptor_count() const noexcept { return descriptor_count_; }
  /// Total serialized descriptor bytes stored (Table I space overhead).
  std::size_t wire_bytes() const noexcept { return wire_bytes_; }

  const feat::BinaryFeatures& features_of(ImageId id) const {
    return images_.at(id).features;
  }
  const GeoTag& geo_of(ImageId id) const { return images_.at(id).geo; }

  const FeatureIndexParams& params() const noexcept { return params_; }

 private:
  struct Entry {
    feat::BinaryFeatures features;
    GeoTag geo;
  };

  FeatureIndexParams params_;
  DescriptorLsh lsh_;
  std::optional<AnnFrontEnd> ann_;
  std::size_t descriptor_count_ = 0;
  std::vector<Entry> images_;
  std::size_t wire_bytes_ = 0;
  /// Rescore pool, null when serial (shared_ptr keeps the index copyable;
  /// copies share the pool, which concurrent queries may use at once).
  std::shared_ptr<util::ThreadPool> pool_;
};

/// Index over float (SIFT / PCA-SIFT) feature sets, used by the SmartEye
/// baseline.  Candidates are pruned by centroid distance (no float LSH),
/// then exactly rescored.
class FloatFeatureIndex {
 public:
  struct Params {
    int max_candidates = 16;
    feat::FloatMatchParams match;
  };

  FloatFeatureIndex() : FloatFeatureIndex(Params{}) {}
  explicit FloatFeatureIndex(const Params& params);

  ImageId insert(feat::FloatFeatures features, const GeoTag& geo = {});
  QueryResult query(const feat::FloatFeatures& query_features,
                    int top_k = kDefaultTopK) const;

  /// Phase 1 of a query: the candidate_budget(params) nearest stored
  /// images by centroid distance, ranked (distance asc, id asc).  Like
  /// FeatureIndex::candidates, the deterministic ranking lets a sharded
  /// deployment merge per-shard candidate lists into exactly the
  /// single-index candidate set.
  std::vector<std::pair<double, ImageId>> centroid_candidates(
      const feat::FloatFeatures& query_features) const;

  /// Phase 2: exact rescoring of an explicit candidate list.
  QueryResult rescore(const feat::FloatFeatures& query_features,
                      const std::vector<ImageId>& candidates,
                      int top_k = kDefaultTopK) const;

  std::size_t image_count() const noexcept { return images_.size(); }
  std::size_t wire_bytes() const noexcept { return wire_bytes_; }

  const feat::FloatFeatures& features_of(ImageId id) const {
    return images_.at(id).features;
  }
  const GeoTag& geo_of(ImageId id) const { return images_.at(id).geo; }

 private:
  struct Entry {
    feat::FloatFeatures features;
    std::vector<float> centroid;
    GeoTag geo;
  };

  static std::vector<float> centroid_of(const feat::FloatFeatures& f);

  Params params_;
  std::vector<Entry> images_;
  std::size_t wire_bytes_ = 0;
};

/// Phase-2 rescore budget of the float path: max_candidates, at least 1.
/// FloatFeatureIndex::centroid_candidates and the cluster frontend's merge
/// both truncate with it, as on the binary path.
std::size_t candidate_budget(const FloatFeatureIndex::Params& params);

}  // namespace bees::idx
