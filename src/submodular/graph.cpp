#include "submodular/graph.hpp"

#include <algorithm>
#include <numeric>

#include "features/match_kernel.hpp"
#include "features/similarity.hpp"

namespace bees::sub {

SimilarityGraph::SimilarityGraph(std::size_t n) : n_(n), w_(n * n, 0.0) {
  for (std::size_t i = 0; i < n; ++i) w_[i * n + i] = 1.0;
}

void SimilarityGraph::set_weight(std::size_t i, std::size_t j,
                                 double value) noexcept {
  if (i == j) return;  // self-weight is pinned at 1
  w_[i * n_ + j] = value;
  w_[j * n_ + i] = value;
}

SimilarityGraph build_similarity_graph(
    const std::vector<feat::BinaryFeatures>& batch,
    const feat::BinaryMatchParams& match, std::uint64_t* ops) {
  SimilarityGraph g(batch.size());
  feat::MatchWorkspace workspace;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      g.set_weight(i, j, feat::jaccard_similarity(batch[i], batch[j], match,
                                                  ops, workspace));
    }
  }
  return g;
}

SimilarityGraph build_similarity_graph(
    const std::vector<const feat::BinaryFeatures*>& batch,
    const feat::BinaryMatchParams& match, std::uint64_t* ops) {
  SimilarityGraph g(batch.size());
  feat::MatchWorkspace workspace;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      g.set_weight(i, j, feat::jaccard_similarity(*batch[i], *batch[j], match,
                                                  ops, workspace));
    }
  }
  return g;
}

namespace {
/// Union-find with path compression for the component partition.
struct DisjointSet {
  std::vector<int> parent;

  explicit DisjointSet(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  }
};
}  // namespace

std::vector<int> partition_components(const SimilarityGraph& graph,
                                      double tw) {
  DisjointSet ds(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    for (std::size_t j = i + 1; j < graph.size(); ++j) {
      // Edges with weight >= tw survive the cut and merge components.
      if (graph.weight(i, j) >= tw) {
        ds.unite(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  std::vector<int> labels(graph.size(), -1);
  int next = 0;
  std::vector<int> root_label(graph.size(), -1);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const int root = ds.find(static_cast<int>(i));
    if (root_label[static_cast<std::size_t>(root)] < 0) {
      root_label[static_cast<std::size_t>(root)] = next++;
    }
    labels[i] = root_label[static_cast<std::size_t>(root)];
  }
  return labels;
}

int component_count(const std::vector<int>& labels) {
  int max_label = -1;
  for (const int l : labels) max_label = std::max(max_label, l);
  return max_label + 1;
}

}  // namespace bees::sub
