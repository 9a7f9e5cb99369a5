// Image-level similarity: the Jaccard similarity of two feature sets
// (paper Eq. 2), sim(I1, I2) = |S1 ∩ S2| / |S1 ∪ S2|, where the
// intersection size is the number of accepted descriptor correspondences.
#pragma once

#include <cstdint>

#include "features/keypoint.hpp"
#include "features/matching.hpp"

namespace bees::feat {

class MatchWorkspace;

/// Jaccard similarity of two ORB feature sets in [0, 1].  Two empty sets
/// have similarity 0 (no evidence of content overlap).
double jaccard_similarity(const BinaryFeatures& a, const BinaryFeatures& b,
                          const BinaryMatchParams& params = {},
                          std::uint64_t* ops = nullptr);

/// Workspace overload for hot loops (index rescore, the IBRD similarity
/// graph): scores many pairs through one reusable MatchWorkspace, so no
/// per-pair allocation or copy happens — both sets are matched where they
/// are stored.  Same value as the overload above.
double jaccard_similarity(const BinaryFeatures& a, const BinaryFeatures& b,
                          const BinaryMatchParams& params, std::uint64_t* ops,
                          MatchWorkspace& workspace);

/// Jaccard similarity of two float feature sets (SIFT / PCA-SIFT).
double jaccard_similarity(const FloatFeatures& a, const FloatFeatures& b,
                          const FloatMatchParams& params = {},
                          std::uint64_t* ops = nullptr);

/// Jaccard from set sizes and match count; shared by the index code.
double jaccard_from_matches(std::size_t size_a, std::size_t size_b,
                            std::size_t match_count) noexcept;

}  // namespace bees::feat
