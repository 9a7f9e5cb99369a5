// Descriptor matching: nearest-neighbour search with Lowe's ratio test and
// mutual cross-checking, for both binary (Hamming) and float (L2)
// descriptors.  The match count feeds the Jaccard image similarity of paper
// Eq. 2.  Defaults were calibrated so that similar views of one scene score
// ~0.1-0.5 while unrelated scenes score ~0.004 with a tail crossing 0.01 —
// the similarity landscape of the paper's Fig. 4.
#pragma once

#include <cstdint>
#include <vector>

#include "features/keypoint.hpp"

namespace bees::feat {

struct BinaryMatchParams {
  int max_distance = 48;   ///< Hamming acceptance threshold (of 256 bits).
  double ratio = 0.8;      ///< best < ratio * second-best (Lowe's test).
  bool cross_check = true; ///< Require mutual nearest neighbours.
};

struct FloatMatchParams {
  /// L2 acceptance threshold.  Calibrated (with the ratio test) so that
  /// SIFT/PCA-SIFT image similarity lands in the same bands as the binary
  /// matcher: similar views >~0.1, unrelated scenes <~0.03 — so the
  /// paper's single EDR threshold family applies to either feature type.
  double max_distance = 0.4;
  double ratio = 0.7;
  bool cross_check = true;
};

/// One accepted correspondence between descriptor sets A and B.
struct Match {
  std::size_t index_a = 0;
  std::size_t index_b = 0;
  double distance = 0.0;
};

/// Hamming matching with ratio test and optional cross-check; each
/// descriptor of `a` matches at most one of `b`.  `ops` (if non-null)
/// accumulates the number of modeled descriptor comparisons.  Runs on the
/// early-exit kernel (match_kernel.hpp) via a thread-local
/// workspace; results are bit-exact with match_binary_naive.
std::vector<Match> match_binary(const std::vector<Descriptor256>& a,
                                const std::vector<Descriptor256>& b,
                                const BinaryMatchParams& params = {},
                                std::uint64_t* ops = nullptr);

/// The brute-force O(|a|*|b|) reference matcher: four XOR+popcount lanes
/// per pair, two full passes when cross-checking.  Kept as the ground
/// truth the kernel is property-tested (and benchmarked) against.
std::vector<Match> match_binary_naive(const std::vector<Descriptor256>& a,
                                      const std::vector<Descriptor256>& b,
                                      const BinaryMatchParams& params = {},
                                      std::uint64_t* ops = nullptr);

/// Brute-force L2 matching with ratio test and optional cross-check for
/// float descriptor sets.
std::vector<Match> match_float(const FloatFeatures& a, const FloatFeatures& b,
                               const FloatMatchParams& params = {},
                               std::uint64_t* ops = nullptr);

/// Squared Euclidean distance between two `dim`-vectors.
double l2_sq(const float* x, const float* y, int dim) noexcept;

}  // namespace bees::feat
