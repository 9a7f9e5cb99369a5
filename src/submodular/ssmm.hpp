// The Similarity-aware Submodular Maximization Model (SSMM), the paper's
// in-batch redundancy detector (§III-B2, Algorithm 1):
//
//   1. Tw = 0.013 + 0.006 * Ebat        (energy-adaptive edge threshold)
//   2. Cut edges with w < Tw; the number of connected components is the
//      knapsack budget b.
//   3. Greedily maximize F(S) = λ_cov f_cov(S) + λ_div f_div(S) subject to
//      |S| <= b, where
//        f_cov(S) = Σ_{i∈V} max_{j∈S} w(i, j)      (coverage)
//        f_div(S) = #components intersected by S   (diversity)
//
// Both component functions are monotone submodular, so the greedy solution
// carries the classic (1 - 1/e) approximation guarantee — a property the
// test suite checks against brute force on small instances.
#pragma once

#include <vector>

#include "submodular/graph.hpp"

namespace bees::sub {

struct SsmmParams {
  double lambda_coverage = 1.0;
  double lambda_diversity = 1.0;
};

/// The coverage component f_cov(S) for a candidate summary S.
double coverage_value(const SimilarityGraph& graph,
                      const std::vector<std::size_t>& selected);

/// The diversity component f_div(S): number of partition components that S
/// intersects.
double diversity_value(const std::vector<int>& components,
                       const std::vector<std::size_t>& selected);

/// Full objective F(S) under `params`.
double objective_value(const SimilarityGraph& graph,
                       const std::vector<int>& components,
                       const std::vector<std::size_t>& selected,
                       const SsmmParams& params);

/// Result of the SSMM selection for one batch.
struct SsmmResult {
  std::vector<std::size_t> selected;  ///< Indices of retained unique images.
  std::vector<int> components;        ///< Component id per batch image.
  int budget = 0;                     ///< b = number of components.
  double objective = 0.0;             ///< F(selected).
};

/// Runs the whole SSMM pipeline on a pre-built similarity graph with the
/// given edge threshold Tw (Algorithm 1 lines 1-10).
SsmmResult select_unique_images(const SimilarityGraph& graph, double tw,
                                const SsmmParams& params = {});

/// Greedy maximization of F subject to |S| <= budget over an explicit
/// partition (exposed separately for tests and the fixed-budget ablation).
/// Runs the lazy greedy (Minoux acceleration).
std::vector<std::size_t> greedy_maximize(const SimilarityGraph& graph,
                                         const std::vector<int>& components,
                                         int budget, const SsmmParams& params);

/// The plain greedy: a full gain scan per pick, which greedy_maximize must
/// match selection for selection; the differential tests' oracle.
std::vector<std::size_t> plain_greedy_maximize(
    const SimilarityGraph& graph, const std::vector<int>& components,
    int budget, const SsmmParams& params);

/// Exhaustive maximizer for small instances (n <= ~20); used by property
/// tests to validate the (1 - 1/e) guarantee.  Throws std::invalid_argument
/// for graphs larger than 20 vertices.
std::vector<std::size_t> brute_force_maximize(
    const SimilarityGraph& graph, const std::vector<int>& components,
    int budget, const SsmmParams& params);

}  // namespace bees::sub
