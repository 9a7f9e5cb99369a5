#include "features/similarity.hpp"

#include <algorithm>

#include "features/match_kernel.hpp"

namespace bees::feat {

double jaccard_from_matches(std::size_t size_a, std::size_t size_b,
                            std::size_t match_count) noexcept {
  const std::size_t union_size = size_a + size_b - match_count;
  if (union_size == 0) return 0.0;
  // A match count can't exceed the smaller set, but guard anyway.
  const std::size_t inter = std::min(match_count, std::min(size_a, size_b));
  return static_cast<double>(inter) / static_cast<double>(union_size);
}

double jaccard_similarity(const BinaryFeatures& a, const BinaryFeatures& b,
                          const BinaryMatchParams& params,
                          std::uint64_t* ops) {
  const auto matches = match_binary(a.descriptors, b.descriptors, params, ops);
  return jaccard_from_matches(a.size(), b.size(), matches.size());
}

double jaccard_similarity(const BinaryFeatures& a, const BinaryFeatures& b,
                          const BinaryMatchParams& params, std::uint64_t* ops,
                          MatchWorkspace& workspace) {
  const std::size_t matched =
      match_binary_count(a.descriptors, b.descriptors, params, ops, workspace);
  return jaccard_from_matches(a.size(), b.size(), matched);
}

double jaccard_similarity(const FloatFeatures& a, const FloatFeatures& b,
                          const FloatMatchParams& params,
                          std::uint64_t* ops) {
  const auto matches = match_float(a, b, params, ops);
  return jaccard_from_matches(a.size(), b.size(), matches.size());
}

}  // namespace bees::feat
