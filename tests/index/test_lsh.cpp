#include "index/lsh.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

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
  lsh.vote(d, votes);
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
  lsh.vote(query, votes);
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
  lsh.vote(d, votes);
  ASSERT_GT(votes.size(), 3u);
  EXPECT_EQ(votes[3], static_cast<std::uint32_t>(lsh.tables()));
  // The duplicate suppression is per payload: a second image with the same
  // descriptor still collects its own full vote share.
  lsh.insert(d, 4);
  votes.clear();
  lsh.vote(d, votes);
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
  lsh.vote(random_descriptor(rng), votes);
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
    lsh.vote(flip_bits(d, 16, rng), votes);
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
  lsh.vote(flip_bits(target, 8, rng), votes);
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
  lsh2.vote(target, votes2);
  EXPECT_EQ(votes2[42], static_cast<std::uint32_t>(GetParam().tables));
}

INSTANTIATE_TEST_SUITE_P(Grid, LshGrid,
                         ::testing::Values(LshGridParam{2, 8},
                                           LshGridParam{6, 12},
                                           LshGridParam{6, 16},
                                           LshGridParam{10, 16},
                                           LshGridParam{10, 24}));

}  // namespace
}  // namespace bees::idx
