#include "index/feature_index.hpp"

#include <algorithm>
#include <cstddef>
#include <thread>

#include "features/match_kernel.hpp"
#include "features/similarity.hpp"
#include "obs/timer.hpp"
#include "util/thread_pool.hpp"

namespace bees::idx {

namespace detail {

void finalize_top_k(QueryResult& result, int top_k) {
  std::sort(result.hits.begin(), result.hits.end(),
            [](const QueryHit& a, const QueryHit& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  if (result.hits.size() > static_cast<std::size_t>(top_k)) {
    result.hits.resize(static_cast<std::size_t>(top_k));
  }
  if (!result.hits.empty()) {
    result.max_similarity = result.hits.front().similarity;
    result.best_id = result.hits.front().id;
  }
}

}  // namespace detail

namespace {

/// The pool a rescore_threads setting asks for: none when it resolves to
/// one thread (0 means hardware concurrency).
std::shared_ptr<util::ThreadPool> make_rescore_pool(int configured) {
  const std::size_t threads =
      configured > 0
          ? static_cast<std::size_t>(configured)
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads <= 1) return nullptr;
  return std::make_shared<util::ThreadPool>(threads);
}

/// The top `budget` images of a dense score vector (indexed by image id),
/// ranked (score desc, id asc); an image scoring 0 is not a candidate.
/// Ids are unique, so the order is total and the partial sort's top
/// `budget` is exactly a full sort's.
std::vector<std::pair<ImageId, std::uint32_t>> top_scored(
    const std::vector<std::uint32_t>& scores, std::size_t budget) {
  std::vector<std::pair<ImageId, std::uint32_t>> ranked;
  for (std::size_t id = 0; id < scores.size(); ++id) {
    if (scores[id] != 0) {
      ranked.emplace_back(static_cast<ImageId>(id), scores[id]);
    }
  }
  const std::size_t kept = std::min(budget, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(kept),
                    ranked.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  ranked.resize(kept);
  return ranked;
}

}  // namespace

std::size_t candidate_budget(const FeatureIndexParams& params) {
  if (!params.ann.enabled) {
    return static_cast<std::size_t>(std::max(1, params.max_candidates));
  }
  return ann_shortlist_budget(params.max_candidates, kDefaultRecallTarget);
}

std::size_t candidate_budget(const FloatFeatureIndex::Params& params) {
  return static_cast<std::size_t>(std::max(1, params.max_candidates));
}

FeatureIndex::FeatureIndex(const FeatureIndexParams& params)
    : params_(params),
      lsh_(params.lsh),
      pool_(make_rescore_pool(params.rescore_threads)) {
  if (params_.ann.enabled) ann_.emplace(params_.ann);
}

ImageId FeatureIndex::insert(feat::BinaryFeatures features,
                             const GeoTag& geo) {
  const auto id = static_cast<ImageId>(images_.size());
  if (params_.enable_descriptor_lsh) {
    for (const auto& d : features.descriptors) lsh_.insert(d, id);
  }
  if (ann_) ann_->insert(id, features.descriptors);
  descriptor_count_ += features.descriptors.size();
  wire_bytes_ += features.wire_bytes();
  images_.push_back({std::move(features), geo});
  return id;
}

QueryResult FeatureIndex::rescore(const feat::BinaryFeatures& query_features,
                                  const std::vector<ImageId>& candidates,
                                  int top_k) const {
  return std::move(
      rescore_batch({&query_features}, {candidates}, {top_k}).front());
}

std::vector<QueryResult> FeatureIndex::rescore_batch(
    const std::vector<const feat::BinaryFeatures*>& queries,
    const std::vector<std::vector<ImageId>>& candidates,
    const std::vector<int>& top_k) const {
  obs::ScopedTimer timer("cloud.query.rescore.seconds");
  // Every (query, candidate) pair in query-major order.  The pool splits
  // this flat list statically, so one long shortlist and many short ones
  // spread over the workers alike.
  std::vector<std::pair<std::size_t, ImageId>> pairs;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const ImageId id : candidates[q]) pairs.emplace_back(q, id);
  }
  // Per-pair slots keep the parallel path deterministic: every chunk
  // writes disjoint slots, and the assembly below walks them in candidate
  // order, so hits and `ops` are the same for any thread count.
  std::vector<double> sims(pairs.size(), 0.0);
  std::vector<std::uint64_t> slot_ops(pairs.size(), 0);
  const auto score = [&](std::size_t begin, std::size_t end) {
    feat::MatchWorkspace workspace;
    for (std::size_t p = begin; p < end; ++p) {
      const auto [q, id] = pairs[p];
      sims[p] = feat::jaccard_similarity(*queries[q], images_[id].features,
                                         params_.match, &slot_ops[p],
                                         workspace);
    }
  };
  // The pool's chunk partition is a static split, so per-slot outputs are
  // the same as the inline run's.
  if (pool_ && pairs.size() > 1) {
    pool_->parallel_for_chunks(pairs.size(), score);
  } else if (!pairs.empty()) {
    score(0, pairs.size());
  }
  std::vector<QueryResult> results(queries.size());
  std::size_t p = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryResult& result = results[q];
    result.candidates_checked = candidates[q].size();
    result.hits.reserve(candidates[q].size());
    for (const ImageId id : candidates[q]) {
      result.ops += slot_ops[p];
      result.hits.push_back({id, sims[p]});
      ++p;
    }
    detail::finalize_top_k(result, top_k[q]);
  }
  return results;
}

std::vector<std::pair<ImageId, std::uint32_t>> FeatureIndex::candidates(
    const feat::BinaryFeatures& query_features) const {
  if (images_.empty() || query_features.empty()) return {};
  std::vector<std::uint32_t> scores(images_.size(), 0);
  if (ann_) ann_->collect(query_features.descriptors, scores);
  // LSH voting: every query descriptor votes for owners of colliding
  // stored descriptors (the tables are empty when descriptor LSH is off).
  if (params_.enable_descriptor_lsh) {
    lsh_.vote(query_features.descriptors, scores);
  }
  return top_scored(scores, candidate_budget(params_));
}

QueryResult FeatureIndex::query(const feat::BinaryFeatures& query_features,
                                int top_k) const {
  if (images_.empty() || query_features.empty()) return {};
  const auto ranked = candidates(query_features);
  std::vector<ImageId> shortlist;
  shortlist.reserve(ranked.size());
  for (const auto& [id, score] : ranked) shortlist.push_back(id);
  return rescore(query_features, shortlist, top_k);
}

QueryResult FeatureIndex::query_exact(
    const feat::BinaryFeatures& query_features, int top_k) const {
  if (images_.empty() || query_features.empty()) return {};
  std::vector<ImageId> all(images_.size());
  for (std::size_t i = 0; i < images_.size(); ++i) {
    all[i] = static_cast<ImageId>(i);
  }
  return rescore(query_features, all, top_k);
}

FloatFeatureIndex::FloatFeatureIndex(const Params& params)
    : params_(params) {}

std::vector<float> FloatFeatureIndex::centroid_of(
    const feat::FloatFeatures& f) {
  std::vector<float> c(static_cast<std::size_t>(f.dim), 0.0f);
  if (f.empty()) return c;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const float* row = f.row(i);
    for (int d = 0; d < f.dim; ++d) c[static_cast<std::size_t>(d)] += row[d];
  }
  for (auto& v : c) v /= static_cast<float>(f.size());
  return c;
}

ImageId FloatFeatureIndex::insert(feat::FloatFeatures features,
                                  const GeoTag& geo) {
  const auto id = static_cast<ImageId>(images_.size());
  wire_bytes_ += features.wire_bytes();
  Entry e;
  e.centroid = centroid_of(features);
  e.features = std::move(features);
  e.geo = geo;
  images_.push_back(std::move(e));
  return id;
}

std::vector<std::pair<double, ImageId>> FloatFeatureIndex::centroid_candidates(
    const feat::FloatFeatures& query_features) const {
  if (images_.empty() || query_features.empty()) return {};
  const std::vector<float> qc = centroid_of(query_features);
  // Prune by centroid distance; pair ordering breaks distance ties by id.
  std::vector<std::pair<double, ImageId>> ranked;
  ranked.reserve(images_.size());
  for (std::size_t i = 0; i < images_.size(); ++i) {
    if (images_[i].features.dim != query_features.dim) continue;
    const double d = feat::l2_sq(qc.data(), images_[i].centroid.data(),
                                 query_features.dim);
    ranked.emplace_back(d, static_cast<ImageId>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(ranked.size(), candidate_budget(params_)));
  return ranked;
}

QueryResult FloatFeatureIndex::rescore(
    const feat::FloatFeatures& query_features,
    const std::vector<ImageId>& candidates, int top_k) const {
  obs::ScopedTimer timer("cloud.query.rescore.seconds");
  QueryResult result;
  result.candidates_checked = candidates.size();
  result.hits.reserve(candidates.size());
  for (const ImageId id : candidates) {
    std::uint64_t ops = 0;
    const double sim = feat::jaccard_similarity(
        query_features, images_[id].features, params_.match, &ops);
    result.ops += ops;
    result.hits.push_back({id, sim});
  }
  detail::finalize_top_k(result, top_k);
  return result;
}

QueryResult FloatFeatureIndex::query(const feat::FloatFeatures& query_features,
                                     int top_k) const {
  if (images_.empty() || query_features.empty()) return {};
  const auto ranked = centroid_candidates(query_features);
  std::vector<ImageId> candidates;
  candidates.reserve(ranked.size());
  for (const auto& [dist, id] : ranked) candidates.push_back(id);
  return rescore(query_features, candidates, top_k);
}

}  // namespace bees::idx
