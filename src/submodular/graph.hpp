// The weighted similarity graph of an image batch: G = (V, E, w) with
// w(i, j) = Jaccard similarity of the images' feature sets (paper §III-B2).
// SSMM cuts edges below a threshold Tw and uses the resulting connected
// components both as the knapsack budget and as the diversity partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "features/keypoint.hpp"
#include "features/matching.hpp"

namespace bees::sub {

/// Dense symmetric weight matrix over n batch images.  Self-weight is fixed
/// at 1 (an image fully covers itself in the coverage function).
class SimilarityGraph {
 public:
  explicit SimilarityGraph(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  double weight(std::size_t i, std::size_t j) const noexcept {
    return w_[i * n_ + j];
  }
  /// Sets the symmetric weight w(i, j) = w(j, i) = value (i != j).
  void set_weight(std::size_t i, std::size_t j, double value) noexcept;

 private:
  std::size_t n_;
  std::vector<double> w_;
};

/// Builds the batch graph by computing pairwise Jaccard similarity between
/// every pair of feature sets.  `ops` (if non-null) accumulates the
/// descriptor-matching work, which the energy model charges to IBRD.
SimilarityGraph build_similarity_graph(
    const std::vector<feat::BinaryFeatures>& batch,
    const feat::BinaryMatchParams& match = {},
    std::uint64_t* ops = nullptr);

/// Borrowing overload: identical graph (bit for bit) from pointers to
/// feature sets owned elsewhere, so callers selecting a subset of a batch
/// (BEES IBRD over CBRD survivors) need not deep-copy descriptor vectors.
SimilarityGraph build_similarity_graph(
    const std::vector<const feat::BinaryFeatures*>& batch,
    const feat::BinaryMatchParams& match = {},
    std::uint64_t* ops = nullptr);

/// Partitions the graph into connected components after cutting every edge
/// with weight < tw (the SSMM partition step).  Returns one component id
/// per vertex, ids in [0, component_count).
std::vector<int> partition_components(const SimilarityGraph& graph,
                                      double tw);

/// Number of distinct components in a partition labelling.
int component_count(const std::vector<int>& labels);

}  // namespace bees::sub
