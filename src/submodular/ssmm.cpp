#include "submodular/ssmm.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <stdexcept>

namespace bees::sub {

double coverage_value(const SimilarityGraph& graph,
                      const std::vector<std::size_t>& selected) {
  if (selected.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    double best = 0.0;
    for (const std::size_t j : selected) {
      best = std::max(best, graph.weight(i, j));
    }
    total += best;
  }
  return total;
}

double diversity_value(const std::vector<int>& components,
                       const std::vector<std::size_t>& selected) {
  const int n_comp = component_count(components);
  std::vector<char> seen(static_cast<std::size_t>(std::max(n_comp, 1)), 0);
  double covered = 0.0;
  for (const std::size_t i : selected) {
    const int c = components[i];
    if (!seen[static_cast<std::size_t>(c)]) {
      seen[static_cast<std::size_t>(c)] = 1;
      covered += 1.0;
    }
  }
  return covered;
}

double objective_value(const SimilarityGraph& graph,
                       const std::vector<int>& components,
                       const std::vector<std::size_t>& selected,
                       const SsmmParams& params) {
  return params.lambda_coverage * coverage_value(graph, selected) +
         params.lambda_diversity * diversity_value(components, selected);
}

namespace {

/// Incremental objective state: tracks per-vertex best coverage weight and
/// per-component hit flags so marginal gains are O(n) instead of O(n |S|).
struct GreedyState {
  const SimilarityGraph& graph;
  const std::vector<int>& components;
  const SsmmParams& params;
  std::vector<double> best_cover;  // max_{j in S} w(i, j) per vertex i
  std::vector<char> comp_hit;
  double objective = 0.0;

  GreedyState(const SimilarityGraph& g, const std::vector<int>& comps,
              const SsmmParams& p)
      : graph(g),
        components(comps),
        params(p),
        best_cover(g.size(), 0.0),
        comp_hit(static_cast<std::size_t>(
                     std::max(component_count(comps), 1)),
                 0) {}

  double gain_of(std::size_t v) const {
    double g = 0.0;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const double w = graph.weight(i, v);
      if (w > best_cover[i]) g += params.lambda_coverage * (w - best_cover[i]);
    }
    if (!comp_hit[static_cast<std::size_t>(components[v])]) {
      g += params.lambda_diversity;
    }
    return g;
  }

  void add(std::size_t v) {
    objective += gain_of(v);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      best_cover[i] = std::max(best_cover[i], graph.weight(i, v));
    }
    comp_hit[static_cast<std::size_t>(components[v])] = 1;
  }
};

}  // namespace

std::vector<std::size_t> plain_greedy_maximize(
    const SimilarityGraph& graph, const std::vector<int>& components,
    int budget, const SsmmParams& params) {
  GreedyState state(graph, components, params);
  std::vector<char> in_s(graph.size(), 0);
  std::vector<std::size_t> selected;
  const auto b = static_cast<std::size_t>(std::max(budget, 0));
  while (selected.size() < std::min(b, graph.size())) {
    double best_gain = -1.0;
    std::size_t best_v = graph.size();
    for (std::size_t v = 0; v < graph.size(); ++v) {
      if (in_s[v]) continue;
      const double g = state.gain_of(v);
      if (g > best_gain) {
        best_gain = g;
        best_v = v;
      }
    }
    if (best_v == graph.size()) break;
    state.add(best_v);
    in_s[best_v] = 1;
    selected.push_back(best_v);
  }
  return selected;
}

/// Lazy greedy (Minoux acceleration): cached gains are upper bounds by
/// submodularity, so a candidate whose refreshed gain still tops the heap
/// is the exact argmax.
std::vector<std::size_t> greedy_maximize(const SimilarityGraph& graph,
                                         const std::vector<int>& components,
                                         int budget,
                                         const SsmmParams& params) {
  GreedyState state(graph, components, params);
  struct HeapItem {
    double gain;
    std::size_t v;
    std::size_t stamp;  // |S| at which gain was computed
    bool operator<(const HeapItem& other) const {
      // Tie-break on the lower vertex index (max-heap: "less" = higher
      // index) so equal-gain candidates pop in the same order
      // plain_greedy_maximize scans them; without this the two could pick
      // different — equally good — summaries on tie-heavy graphs.
      if (gain != other.gain) return gain < other.gain;
      return v > other.v;
    }
  };
  std::priority_queue<HeapItem> heap;
  for (std::size_t v = 0; v < graph.size(); ++v) {
    heap.push({state.gain_of(v), v, 0});
  }
  std::vector<std::size_t> selected;
  const auto b = static_cast<std::size_t>(std::max(budget, 0));
  while (selected.size() < std::min(b, graph.size()) && !heap.empty()) {
    HeapItem top = heap.top();
    heap.pop();
    if (top.stamp == selected.size()) {
      state.add(top.v);
      selected.push_back(top.v);
    } else {
      top.gain = state.gain_of(top.v);
      top.stamp = selected.size();
      heap.push(top);
    }
  }
  return selected;
}

std::vector<std::size_t> brute_force_maximize(
    const SimilarityGraph& graph, const std::vector<int>& components,
    int budget, const SsmmParams& params) {
  if (graph.size() > 20) {
    throw std::invalid_argument("brute_force_maximize: instance too large");
  }
  const auto n = graph.size();
  double best_val = -1.0;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (std::popcount(mask) > budget) continue;
    std::vector<std::size_t> s;
    for (std::size_t v = 0; v < n; ++v) {
      if (mask & (1u << v)) s.push_back(v);
    }
    const double val = objective_value(graph, components, s, params);
    if (val > best_val) {
      best_val = val;
      best_mask = mask;
    }
  }
  std::vector<std::size_t> s;
  for (std::size_t v = 0; v < n; ++v) {
    if (best_mask & (1u << v)) s.push_back(v);
  }
  return s;
}

SsmmResult select_unique_images(const SimilarityGraph& graph, double tw,
                                const SsmmParams& params) {
  SsmmResult result;
  result.components = partition_components(graph, tw);
  result.budget = component_count(result.components);
  result.selected =
      greedy_maximize(graph, result.components, result.budget, params);
  std::sort(result.selected.begin(), result.selected.end());
  result.objective =
      objective_value(graph, result.components, result.selected, params);
  return result;
}

}  // namespace bees::sub
