#include "submodular/ssmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace bees::sub {
namespace {

SimilarityGraph random_graph(std::size_t n, double edge_prob,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  SimilarityGraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(edge_prob)) g.set_weight(i, j, rng.next_double());
    }
  }
  return g;
}

double eval(const SimilarityGraph& g, const std::vector<int>& comps,
            std::vector<std::size_t> s, const SsmmParams& p) {
  return objective_value(g, comps, s, p);
}

TEST(Coverage, EmptySummaryIsZero) {
  const SimilarityGraph g = random_graph(5, 0.5, 1);
  EXPECT_DOUBLE_EQ(coverage_value(g, {}), 0.0);
}

TEST(Coverage, FullSetCoversEverythingAtOne) {
  const SimilarityGraph g = random_graph(5, 0.5, 2);
  std::vector<std::size_t> all{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(coverage_value(g, all), 5.0);  // self-weight 1 each
}

TEST(Coverage, SingleElementCoversNeighborsByWeight) {
  SimilarityGraph g(3);
  g.set_weight(0, 1, 0.4);
  g.set_weight(0, 2, 0.1);
  EXPECT_DOUBLE_EQ(coverage_value(g, {0}), 1.0 + 0.4 + 0.1);
}

TEST(Diversity, CountsIntersectedComponents) {
  const std::vector<int> comps{0, 0, 1, 1, 2};
  EXPECT_DOUBLE_EQ(diversity_value(comps, {}), 0.0);
  EXPECT_DOUBLE_EQ(diversity_value(comps, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(diversity_value(comps, {0, 2, 4}), 3.0);
}

TEST(Objective, IsWeightedSum) {
  const SimilarityGraph g = random_graph(4, 0.5, 3);
  const std::vector<int> comps{0, 0, 1, 1};
  SsmmParams p;
  p.lambda_coverage = 2.0;
  p.lambda_diversity = 3.0;
  const std::vector<std::size_t> s{0, 2};
  EXPECT_NEAR(objective_value(g, comps, s, p),
              2.0 * coverage_value(g, s) + 3.0 * diversity_value(comps, s),
              1e-12);
}

/// Property: F is monotone — adding an element never decreases it.
class SsmmRandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsmmRandomGraphs, ObjectiveIsMonotone) {
  const SimilarityGraph g = random_graph(10, 0.4, GetParam());
  const auto comps = partition_components(g, 0.5);
  util::Rng rng(GetParam() + 1);
  SsmmParams p;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> s;
    for (std::size_t v = 0; v < 10; ++v) {
      if (rng.bernoulli(0.4)) s.push_back(v);
    }
    const double base = eval(g, comps, s, p);
    for (std::size_t v = 0; v < 10; ++v) {
      if (std::find(s.begin(), s.end(), v) != s.end()) continue;
      auto s2 = s;
      s2.push_back(v);
      EXPECT_GE(eval(g, comps, s2, p), base - 1e-12);
    }
  }
}

TEST_P(SsmmRandomGraphs, ObjectiveIsSubmodular) {
  // f(A + v) - f(A) >= f(B + v) - f(B) for A subset of B.
  const SimilarityGraph g = random_graph(9, 0.5, GetParam() * 7 + 1);
  const auto comps = partition_components(g, 0.4);
  util::Rng rng(GetParam() + 2);
  SsmmParams p;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> a, extra;
    for (std::size_t v = 0; v < 9; ++v) {
      if (rng.bernoulli(0.3)) {
        a.push_back(v);
      } else if (rng.bernoulli(0.4)) {
        extra.push_back(v);
      }
    }
    std::vector<std::size_t> b = a;
    b.insert(b.end(), extra.begin(), extra.end());
    for (std::size_t v = 0; v < 9; ++v) {
      if (std::find(b.begin(), b.end(), v) != b.end()) continue;
      auto av = a;
      av.push_back(v);
      auto bv = b;
      bv.push_back(v);
      const double gain_a = eval(g, comps, av, p) - eval(g, comps, a, p);
      const double gain_b = eval(g, comps, bv, p) - eval(g, comps, b, p);
      EXPECT_GE(gain_a, gain_b - 1e-12);
    }
  }
}

TEST_P(SsmmRandomGraphs, GreedyMeetsApproximationGuarantee) {
  // F(greedy) >= (1 - 1/e) F(OPT) on exhaustively solvable instances.
  const SimilarityGraph g = random_graph(11, 0.5, GetParam() * 13 + 5);
  const auto comps = partition_components(g, 0.3);
  SsmmParams p;
  for (const int budget : {1, 2, 4}) {
    const auto greedy = greedy_maximize(g, comps, budget, p);
    const auto opt = brute_force_maximize(g, comps, budget, p);
    const double f_greedy = eval(g, comps, greedy, p);
    const double f_opt = eval(g, comps, opt, p);
    EXPECT_GE(f_greedy, (1.0 - 1.0 / std::exp(1.0)) * f_opt - 1e-9)
        << "budget " << budget;
  }
}

TEST_P(SsmmRandomGraphs, LazyGreedyEqualsPlainGreedy) {
  const SimilarityGraph g = random_graph(14, 0.4, GetParam() * 17 + 3);
  const auto comps = partition_components(g, 0.4);
  SsmmParams p;
  for (const int budget : {1, 3, 6, 14}) {
    const auto a = greedy_maximize(g, comps, budget, p);
    const auto b = plain_greedy_maximize(g, comps, budget, p);
    // Tie-breaking may differ; the achieved objective must be identical.
    EXPECT_NEAR(eval(g, comps, a, p), eval(g, comps, b, p), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsmmRandomGraphs,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Regression: lazy greedy used to tie-break equal gains by heap insertion
// order while plain greedy keeps the lowest index, so the two variants
// could return different (equally good) summaries.  On tie-heavy graphs —
// weights drawn from {0, 0.5} so many candidates share exact gains — the
// selections must now be identical element for element, order included.
TEST(Greedy, LazyMatchesPlainSelectionUnderTies) {
  SsmmParams p;
  for (const std::uint64_t seed : {1u, 5u, 9u, 23u}) {
    for (const std::size_t n : {6u, 10u, 14u}) {
      util::Rng rng(seed * 100 + n);
      SimilarityGraph g(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (rng.bernoulli(0.5)) g.set_weight(i, j, 0.5);
        }
      }
      const auto comps = partition_components(g, 0.25);
      for (const int budget : {1, 3, static_cast<int>(n)}) {
        const auto a = greedy_maximize(g, comps, budget, p);
        const auto b = plain_greedy_maximize(g, comps, budget, p);
        EXPECT_EQ(a, b) << "seed " << seed << " n " << n << " budget "
                        << budget;
      }
    }
  }
}

TEST(Greedy, LazyMatchesPlainOnFullyTiedGraph) {
  // Every pair at the same weight: gains are maximally degenerate.
  for (const std::size_t n : {4u, 8u, 12u}) {
    SimilarityGraph g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) g.set_weight(i, j, 0.3);
    }
    const auto comps = partition_components(g, 0.2);
    SsmmParams p;
    for (const int budget : {1, 2, static_cast<int>(n / 2)}) {
      EXPECT_EQ(greedy_maximize(g, comps, budget, p),
                plain_greedy_maximize(g, comps, budget, p))
          << "n " << n << " budget " << budget;
    }
  }
}

TEST(Greedy, RespectsBudget) {
  const SimilarityGraph g = random_graph(10, 0.6, 31);
  const auto comps = partition_components(g, 0.5);
  for (const int budget : {0, 1, 3, 10, 20}) {
    const auto s = greedy_maximize(g, comps, budget, {});
    EXPECT_LE(s.size(), static_cast<std::size_t>(std::max(budget, 0)));
    EXPECT_LE(s.size(), g.size());
  }
}

TEST(Greedy, SelectionHasNoDuplicates) {
  const SimilarityGraph g = random_graph(12, 0.5, 37);
  const auto comps = partition_components(g, 0.3);
  auto s = greedy_maximize(g, comps, 12, {});
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
}

TEST(BruteForce, RejectsLargeInstances) {
  const SimilarityGraph g = random_graph(21, 0.1, 41);
  EXPECT_THROW(brute_force_maximize(g, partition_components(g, 0.5), 3, {}),
               std::invalid_argument);
}

TEST(SelectUnique, BudgetEqualsComponentCount) {
  // 6 vertices in 3 clear clusters of 2.
  SimilarityGraph g(6);
  g.set_weight(0, 1, 0.8);
  g.set_weight(2, 3, 0.7);
  g.set_weight(4, 5, 0.9);
  const SsmmResult r = select_unique_images(g, 0.5, {});
  EXPECT_EQ(r.budget, 3);
  EXPECT_EQ(r.selected.size(), 3u);
  // The selection covers each cluster exactly once.
  std::vector<int> chosen_comp;
  for (const auto v : r.selected) chosen_comp.push_back(r.components[v]);
  std::sort(chosen_comp.begin(), chosen_comp.end());
  EXPECT_EQ(std::adjacent_find(chosen_comp.begin(), chosen_comp.end()),
            chosen_comp.end());
}

TEST(SelectUnique, AllDistinctImagesAreAllKept) {
  // No edge above threshold: every image is its own component and all are
  // retained — BEES must not drop unique content.
  SimilarityGraph g(5);
  g.set_weight(0, 1, 0.001);
  const SsmmResult r = select_unique_images(g, 0.013, {});
  EXPECT_EQ(r.budget, 5);
  EXPECT_EQ(r.selected.size(), 5u);
}

TEST(SelectUnique, HigherSimilarityLowersBudget) {
  // The SSMM design goal: "the higher the similarities among the images in
  // V are, the lower the budget b is."
  SimilarityGraph sparse(6), dense(6);
  dense.set_weight(0, 1, 0.5);
  dense.set_weight(1, 2, 0.5);
  dense.set_weight(3, 4, 0.5);
  const SsmmResult rs = select_unique_images(sparse, 0.013, {});
  const SsmmResult rd = select_unique_images(dense, 0.013, {});
  EXPECT_LT(rd.budget, rs.budget);
}

TEST(SelectUnique, ObjectiveMatchesReportedValue) {
  const SimilarityGraph g = random_graph(9, 0.5, 43);
  const SsmmResult r = select_unique_images(g, 0.4, {});
  EXPECT_NEAR(r.objective,
              objective_value(g, r.components, r.selected, {}), 1e-12);
}

}  // namespace
}  // namespace bees::sub
