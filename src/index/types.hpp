// Shared value types of the server-side indices: image ids, ranked query
// hits, and the deterministic top-k epilogue every similarity query funnels
// through.  Split out of feature_index.hpp so the candidate-generation
// layers (lsh, minhash, vocabulary, ann) can speak these types without
// pulling in the full index classes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace bees::idx {

using ImageId = std::uint32_t;
inline constexpr ImageId kInvalidImageId =
    std::numeric_limits<ImageId>::max();

/// Ranked hits a similarity query returns by default.  Single source of
/// truth for every layer's default: index queries, the vocabulary index,
/// cloud::Server entry points, the wire protocol's query messages, and
/// core::SchemeConfig all route through this constant.
inline constexpr int kDefaultTopK = 4;

/// Recall target of the ANN-pruned query path: sizes the exact-rescore
/// shortlist via ann_shortlist_budget() (see candidate_budget).
inline constexpr double kDefaultRecallTarget = 0.95;

/// One ranked hit of a similarity query.
struct QueryHit {
  ImageId id = kInvalidImageId;
  double similarity = 0.0;
};

/// Result of querying the index with one image's features.
struct QueryResult {
  /// Ranked hits, most similar first (up to the requested top-k).
  std::vector<QueryHit> hits;
  /// The paper's "maximum similarity": similarity to the most similar
  /// stored image, 0 if the index is empty.
  double max_similarity = 0.0;
  ImageId best_id = kInvalidImageId;
  /// Candidate images whose descriptors were exactly matched.
  std::size_t candidates_checked = 0;
  /// Descriptor-comparison work performed (for the server-cost ablation).
  std::uint64_t ops = 0;
};

namespace detail {
/// Shared top-k epilogue of every similarity query: sorts hits by
/// similarity (descending), breaking ties by ascending ImageId so rankings
/// are stable across memory layouts and thread counts; truncates to
/// `top_k` and fills max_similarity / best_id from the leader.
void finalize_top_k(QueryResult& result, int top_k);
}  // namespace detail

}  // namespace bees::idx
