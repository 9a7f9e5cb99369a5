// Reference implementation of the descriptor LSH: bit-sampling tables
// whose buckets are std::unordered_map entries holding payload vectors,
// voted one query descriptor at a time.  It is the layout the library's
// flat, open-addressed bucket tables replaced.  The library promises the
// same votes for any insert and query sequence, so the oracle tests
// compare the two vote vectors element for element.  Keep it as it is: it
// defines the votes, not the speed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "features/keypoint.hpp"
#include "index/lsh.hpp"
#include "util/rng.hpp"

namespace bees::ref {

class DescriptorLsh {
 public:
  explicit DescriptorLsh(const idx::LshParams& params = {})
      : bits_per_key_(params.bits_per_key) {
    if (params.tables <= 0 || params.bits_per_key <= 0 ||
        params.bits_per_key > 32) {
      throw std::invalid_argument("DescriptorLsh: bad parameters");
    }
    util::Rng rng(params.seed);
    positions_.resize(static_cast<std::size_t>(params.tables));
    buckets_.resize(static_cast<std::size_t>(params.tables));
    for (auto& pos : positions_) {
      // Sample k distinct bit positions per table.
      std::vector<int> all(256);
      std::iota(all.begin(), all.end(), 0);
      rng.shuffle(all);
      pos.assign(all.begin(), all.begin() + params.bits_per_key);
    }
  }

  void insert(const feat::Descriptor256& d, std::uint32_t payload) {
    for (std::size_t t = 0; t < positions_.size(); ++t) {
      auto& bucket = buckets_[t][key_for(d, t)];
      // Per-bucket payload dedup.  One image's descriptors are inserted
      // back-to-back, so a repeat collision of the same image in this
      // bucket is always at the tail; skipping it keeps vote() from
      // inflating descriptor-dense images and shrinks bucket storage.
      if (!bucket.empty() && bucket.back() == payload) continue;
      bucket.push_back(payload);
    }
    ++inserted_;
    payload_end_ = std::max(payload_end_, std::size_t{payload} + 1);
  }

  void vote(const feat::Descriptor256& d,
            std::vector<std::uint32_t>& votes) const {
    if (votes.size() < payload_end_) votes.resize(payload_end_, 0);
    for (std::size_t t = 0; t < positions_.size(); ++t) {
      const auto it = buckets_[t].find(key_for(d, t));
      if (it == buckets_[t].end()) continue;
      for (const std::uint32_t payload : it->second) ++votes[payload];
    }
  }

  std::size_t descriptor_count() const noexcept { return inserted_; }
  int tables() const noexcept { return static_cast<int>(positions_.size()); }

  double table_collision_probability(int hamming) const noexcept {
    const double p = 1.0 - static_cast<double>(hamming) / 256.0;
    return std::pow(p, bits_per_key_);
  }

 private:
  std::uint32_t key_for(const feat::Descriptor256& d, std::size_t table) const
      noexcept {
    std::uint32_t key = 0;
    for (const int bit : positions_[table]) {
      key = (key << 1) | (d.get_bit(bit) ? 1u : 0u);
    }
    return key;
  }

  std::vector<std::vector<int>> positions_;  // per table: sampled bit indices
  std::vector<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>
      buckets_;
  std::size_t inserted_ = 0;
  std::size_t payload_end_ = 0;  // one past the largest payload inserted
  int bits_per_key_ = 16;
};

}  // namespace bees::ref
