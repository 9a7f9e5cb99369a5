#include "index/ann.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace bees::idx {

namespace {

/// Fixed pseudo-random training sample for the vocabulary tree.  Deriving
/// the sample from the seed (not from stored data) makes the quantizer a
/// pure function of AnnParams: every shard, and every index built from the
/// same params, assigns identical words.
std::vector<feat::Descriptor256> seed_sample(const VocabularyParams& params,
                                             int count) {
  util::Rng rng(params.seed ^ 0xa22a5eedULL);
  std::vector<feat::Descriptor256> sample(
      static_cast<std::size_t>(std::max(count, 2)));
  for (auto& d : sample) {
    for (auto& lane : d.bits) lane = rng.next_u64();
  }
  return sample;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t state = h ^ v;
  return util::splitmix64(state);
}

}  // namespace

std::size_t ann_shortlist_budget(int max_candidates, double recall_target) {
  const auto floor = static_cast<std::size_t>(std::max(1, max_candidates));
  const double clamped = std::clamp(recall_target, 0.0, 0.995);
  const double factor = 1.0 / (1.0 - clamped);
  return std::max(floor, static_cast<std::size_t>(std::ceil(
                             static_cast<double>(floor) * factor)));
}

AnnFrontEnd::AnnFrontEnd(const AnnParams& params)
    : params_(params),
      hasher_([&] {
        if (params.bands <= 0 || params.rows <= 0) {
          throw std::invalid_argument("AnnFrontEnd: bad band parameters");
        }
        MinHashParams mh = params.minhash;
        mh.hashes = params.bands * params.rows;
        return MinHasher(mh);
      }()),
      tree_(VocabularyTree::train(
          seed_sample(params.vocabulary, params.vocabulary_sample),
          params.vocabulary)),
      band_tables_(static_cast<std::size_t>(params.bands)) {}

std::vector<std::uint64_t> AnnFrontEnd::band_signatures_of(
    const MinHashSketch& sketch) const {
  std::vector<std::uint64_t> sigs(static_cast<std::size_t>(params_.bands));
  for (int b = 0; b < params_.bands; ++b) {
    // Chain the band's minima through splitmix; salting with the band index
    // keeps equal-minima bands of different positions distinct.
    std::uint64_t h = 0x5ee1ba9dULL ^ static_cast<std::uint64_t>(b);
    for (int r = 0; r < params_.rows; ++r) {
      h = mix(h, sketch.minima[static_cast<std::size_t>(
                    b * params_.rows + r)]);
    }
    sigs[static_cast<std::size_t>(b)] = h;
  }
  return sigs;
}

AnnFrontEnd::Row AnnFrontEnd::make_row(
    const std::vector<feat::Descriptor256>& descriptors) const {
  Row row;
  if (descriptors.empty()) {
    // No descriptors -> no derived state; an empty row never matches.
    return row;
  }
  row.band_signatures = band_signatures_of(hasher_.sketch(descriptors));
  row.words.reserve(descriptors.size());
  for (const auto& d : descriptors) row.words.push_back(tree_.quantize(d));
  std::sort(row.words.begin(), row.words.end());
  row.words.erase(std::unique(row.words.begin(), row.words.end()),
                  row.words.end());
  return row;
}

void AnnFrontEnd::insert(ImageId id,
                         const std::vector<feat::Descriptor256>& descriptors) {
  if (static_cast<std::size_t>(id) != image_count_) {
    throw std::invalid_argument("AnnFrontEnd: out-of-order insert");
  }
  const Row row = make_row(descriptors);
  if (!row.band_signatures.empty()) {
    for (int b = 0; b < params_.bands; ++b) {
      band_tables_[static_cast<std::size_t>(b)]
                  [row.band_signatures[static_cast<std::size_t>(b)]]
                      .push_back(id);
    }
  }
  for (const std::uint32_t word : row.words) {
    inverted_[word].push_back(id);
  }
  ++image_count_;
}

void AnnFrontEnd::collect(const std::vector<feat::Descriptor256>& query,
                          std::vector<std::uint32_t>& scores) const {
  if (query.empty() || image_count() == 0) return;
  if (scores.size() < image_count_) scores.resize(image_count_, 0);
  // Score weight of one band collision relative to one shared visual word
  // (a band collision is far stronger evidence of high Jaccard).
  constexpr std::uint32_t kBandWeight = 8;
  const Row q = make_row(query);
  for (int b = 0; b < params_.bands; ++b) {
    const auto& table = band_tables_[static_cast<std::size_t>(b)];
    const auto it =
        table.find(q.band_signatures[static_cast<std::size_t>(b)]);
    if (it == table.end()) continue;
    for (const ImageId id : it->second) scores[id] += kBandWeight;
  }
  for (const std::uint32_t word : q.words) {
    const auto it = inverted_.find(word);
    if (it == inverted_.end()) continue;
    for (const ImageId id : it->second) scores[id] += 1;
  }
}

}  // namespace bees::idx
