#include "index/lsh.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "reference/lsh_reference.hpp"
#include "util/rng.hpp"

namespace bees::idx {
namespace {

feat::Descriptor256 random_descriptor(util::Rng& rng) {
  feat::Descriptor256 d;
  for (auto& lane : d.bits) lane = rng.next_u64();
  return d;
}

feat::Descriptor256 flip_bits(feat::Descriptor256 d, int count,
                              util::Rng& rng) {
  for (int i = 0; i < count; ++i) {
    const int bit = static_cast<int>(rng.index(256));
    d.bits[static_cast<std::size_t>(bit >> 6)] ^= std::uint64_t{1}
                                                  << (bit & 63);
  }
  return d;
}

/// A one-descriptor query.
std::span<const feat::Descriptor256, 1> one(const feat::Descriptor256& d) {
  return std::span<const feat::Descriptor256, 1>(&d, 1);
}

TEST(Lsh, RejectsBadParams) {
  LshParams p;
  p.tables = 0;
  EXPECT_THROW(DescriptorLsh{p}, std::invalid_argument);
  p = {};
  p.bits_per_key = 0;
  EXPECT_THROW(DescriptorLsh{p}, std::invalid_argument);
  p = {};
  p.bits_per_key = 33;
  EXPECT_THROW(DescriptorLsh{p}, std::invalid_argument);
}

TEST(Lsh, IdenticalDescriptorAlwaysCollides) {
  util::Rng rng(1);
  DescriptorLsh lsh;
  const feat::Descriptor256 d = random_descriptor(rng);
  lsh.insert(d, 7);
  std::vector<std::uint32_t> votes;
  lsh.vote(one(d), votes);
  ASSERT_GT(votes.size(), 7u);
  EXPECT_EQ(votes[7], static_cast<std::uint32_t>(lsh.tables()));
}

TEST(Lsh, NearDescriptorsOutvoteFarOnes) {
  util::Rng rng(2);
  DescriptorLsh lsh;
  const feat::Descriptor256 query = random_descriptor(rng);
  // Payload 1: 100 near descriptors; payload 2: 100 random ones.
  for (int i = 0; i < 100; ++i) {
    lsh.insert(flip_bits(query, 12, rng), 1);
    lsh.insert(random_descriptor(rng), 2);
  }
  std::vector<std::uint32_t> votes;
  lsh.vote(one(query), votes);
  ASSERT_GT(votes.size(), 2u);
  EXPECT_GT(votes[1], votes[2] * 3 + 3);
}

TEST(Lsh, DuplicateDescriptorsDoNotInflateVotes) {
  // Regression: an image storing the same descriptor k times used to get k
  // votes per table from one query descriptor, letting a low-texture image
  // with a few repeated patterns outrank a genuinely similar one.  A
  // (table, key) bucket now holds each payload once, so the vote count is
  // bounded by the table count regardless of multiplicity.
  util::Rng rng(7);
  DescriptorLsh lsh;
  const feat::Descriptor256 d = random_descriptor(rng);
  for (int i = 0; i < 10; ++i) lsh.insert(d, 3);
  std::vector<std::uint32_t> votes;
  lsh.vote(one(d), votes);
  ASSERT_GT(votes.size(), 3u);
  EXPECT_EQ(votes[3], static_cast<std::uint32_t>(lsh.tables()));
  // The duplicate suppression is per payload: a second image with the same
  // descriptor still collects its own full vote share.
  lsh.insert(d, 4);
  votes.clear();
  lsh.vote(one(d), votes);
  ASSERT_GT(votes.size(), 4u);
  EXPECT_EQ(votes[3], static_cast<std::uint32_t>(lsh.tables()));
  EXPECT_EQ(votes[4], static_cast<std::uint32_t>(lsh.tables()));
  // descriptor_count still reports physical insertions (Table I space
  // accounting), not deduplicated bucket entries.
  EXPECT_EQ(lsh.descriptor_count(), 11u);
}

TEST(Lsh, VoteOnEmptyIndexIsEmpty) {
  util::Rng rng(3);
  DescriptorLsh lsh;
  std::vector<std::uint32_t> votes;
  lsh.vote(one(random_descriptor(rng)), votes);
  EXPECT_TRUE(votes.empty());
}

TEST(Lsh, DescriptorCountTracksInsertions) {
  util::Rng rng(4);
  DescriptorLsh lsh;
  EXPECT_EQ(lsh.descriptor_count(), 0u);
  for (int i = 0; i < 5; ++i) lsh.insert(random_descriptor(rng), 0);
  EXPECT_EQ(lsh.descriptor_count(), 5u);
}

TEST(Lsh, AnalyticCollisionProbability) {
  LshParams p;
  p.bits_per_key = 16;
  DescriptorLsh lsh(p);
  EXPECT_DOUBLE_EQ(lsh.table_collision_probability(0), 1.0);
  EXPECT_NEAR(lsh.table_collision_probability(16),
              std::pow(1.0 - 16.0 / 256.0, 16), 1e-12);
  EXPECT_LT(lsh.table_collision_probability(128),
            lsh.table_collision_probability(16));
}

TEST(Lsh, EmpiricalCollisionRateMatchesAnalytic) {
  // Monte-Carlo check of the (1 - d/256)^k law at distance 16.
  util::Rng rng(5);
  LshParams p;
  p.tables = 1;
  p.bits_per_key = 12;
  constexpr int kTrials = 3000;
  int collisions = 0;
  for (int t = 0; t < kTrials; ++t) {
    DescriptorLsh lsh(p);
    const feat::Descriptor256 d = random_descriptor(rng);
    lsh.insert(d, 1);
    std::vector<std::uint32_t> votes;
    lsh.vote(one(flip_bits(d, 16, rng)), votes);
    collisions += votes.size() > 1 && votes[1] > 0 ? 1 : 0;
  }
  const double expected = std::pow(1.0 - 16.0 / 256.0, 12);
  EXPECT_NEAR(static_cast<double>(collisions) / kTrials, expected, 0.04);
}

struct LshGridParam {
  int tables;
  int bits;
};

class LshGrid : public ::testing::TestWithParam<LshGridParam> {};

TEST_P(LshGrid, FindsTrueNeighborAcrossConfigurations) {
  util::Rng rng(6);
  LshParams p;
  p.tables = GetParam().tables;
  p.bits_per_key = GetParam().bits;
  DescriptorLsh lsh(p);
  const feat::Descriptor256 target = random_descriptor(rng);
  lsh.insert(target, 42);
  for (int i = 0; i < 50; ++i) lsh.insert(random_descriptor(rng), 99);
  std::vector<std::uint32_t> votes;
  // Query with a mildly corrupted copy; more tables raise recall.
  lsh.vote(one(flip_bits(target, 8, rng)), votes);
  ASSERT_EQ(votes.size(), 100u);  // one slot per payload up to 99
  if (GetParam().tables >= 6) {
    EXPECT_GT(votes[42], 0u);
  }
  // Distinct bit samples per table must be deterministic per seed: a second
  // identical index gives identical votes.
  DescriptorLsh lsh2(p);
  lsh2.insert(target, 42);
  for (int i = 0; i < 50; ++i) lsh2.insert(random_descriptor(rng), 99);
  std::vector<std::uint32_t> votes2;
  lsh2.vote(one(target), votes2);
  EXPECT_EQ(votes2[42], static_cast<std::uint32_t>(GetParam().tables));
}

INSTANTIATE_TEST_SUITE_P(Grid, LshGrid,
                         ::testing::Values(LshGridParam{2, 8},
                                           LshGridParam{6, 12},
                                           LshGridParam{6, 16},
                                           LshGridParam{10, 16},
                                           LshGridParam{10, 24}));

// The flat tables against the map-based layout they replaced
// (reference/lsh_reference.hpp): the same inserts must give the same vote
// vector for every query, whatever the table shape.  Low bits_per_key
// forces long buckets and probe clusters; 32 uses the whole key range,
// including keys 0 and 0xffffffff.
class LshOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LshOracle, VotesMatchMapReference) {
  LshParams p;
  p.bits_per_key = std::get<0>(GetParam());
  p.tables = std::get<1>(GetParam());
  DescriptorLsh lsh(p);
  ref::DescriptorLsh oracle(p);
  util::Rng rng(static_cast<std::uint64_t>(p.bits_per_key * 100 + p.tables));

  feat::Descriptor256 zeros;
  feat::Descriptor256 ones;
  for (auto& lane : ones.bits) lane = ~std::uint64_t{0};
  std::vector<feat::Descriptor256> stored = {zeros, ones};

  // Votes for `query`, with both vote vectors starting as `prefill`: the
  // library votes the whole set at once, the reference one descriptor at
  // a time.
  const auto expect_same_votes =
      [&](const std::vector<feat::Descriptor256>& query,
          const std::vector<std::uint32_t>& prefill) {
        std::vector<std::uint32_t> got = prefill;
        lsh.vote(query, got);
        std::vector<std::uint32_t> want = prefill;
        for (const auto& d : query) oracle.vote(d, want);
        ASSERT_EQ(got, want);
      };

  std::uint32_t payload = 0;
  std::size_t payload_end = 0;
  for (int image = 0; image < 150; ++image) {
    // Payload ids with gaps; each image's descriptors go in as one run of
    // its payload, some repeated, so bucket tails dedup.
    payload += 1 + static_cast<std::uint32_t>(rng.index(3));
    const int count = 1 + static_cast<int>(rng.index(40));
    for (int i = 0; i < count; ++i) {
      feat::Descriptor256 d;
      const std::size_t pick = rng.index(4);
      if (pick == 0) {
        d = stored[rng.index(stored.size())];  // an exact repeat
      } else if (pick == 1) {
        d = flip_bits(stored[rng.index(stored.size())], 6, rng);
      } else {
        d = random_descriptor(rng);
      }
      stored.push_back(d);
      lsh.insert(d, payload);
      oracle.insert(d, payload);
    }
    payload_end = std::size_t{payload} + 1;

    if (image % 10 == 0 || image == 149) {
      std::vector<feat::Descriptor256> query = {zeros, ones};
      for (int i = 0; i < 30; ++i) {
        const feat::Descriptor256& near = stored[rng.index(stored.size())];
        query.push_back(rng.index(2) == 0 ? near : flip_bits(near, 4, rng));
        query.push_back(random_descriptor(rng));
      }
      // Vote vectors passed in empty, shorter and longer than the
      // payload range, the latter two holding earlier counts.
      expect_same_votes(query, {});
      std::vector<std::uint32_t> shorter(payload_end / 2);
      for (auto& v : shorter) v = static_cast<std::uint32_t>(rng.index(5));
      expect_same_votes(query, shorter);
      std::vector<std::uint32_t> longer(payload_end + 7);
      for (auto& v : longer) v = static_cast<std::uint32_t>(rng.index(5));
      expect_same_votes(query, longer);
    }
  }
  EXPECT_EQ(lsh.descriptor_count(), oracle.descriptor_count());

  // An empty query still zero-fills the vote vector to the payload range.
  std::vector<std::uint32_t> votes;
  lsh.vote({}, votes);
  EXPECT_EQ(votes, std::vector<std::uint32_t>(payload_end, 0));
}

INSTANTIATE_TEST_SUITE_P(Shapes, LshOracle,
                         ::testing::Combine(::testing::Values(1, 4, 12, 16,
                                                              24, 32),
                                            ::testing::Values(1, 6, 10)));

}  // namespace
}  // namespace bees::idx
