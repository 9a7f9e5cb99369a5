// Store-backed durability: WAL record bodies and snapshots live as
// content-addressed chunks in the shared segment store — recovery
// must still serve byte-identical answers across shard counts, checkpoint
// and compaction cycles, and torn segment tails, and chunked WAL frames
// must never decode without a store to resolve them.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "features/global.hpp"
#include "features/orb.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "serve/wal.hpp"
#include "util/rng.hpp"

namespace bees::serve {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

feat::FloatFeatures make_float(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_sift(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

feat::ColorHistogram make_histogram(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::color_histogram(
      img::render_view(img::SceneSpec{seed, 18, 4}, 120, 90, pert, rng));
}

idx::GeoTag geo_of(int i) {
  return {2.29 + 0.01 * (i % 3), 48.85 + 0.002 * (i % 3), true};
}

class StoreDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bees_store_durability_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Cluster options with the shared segment store rooted under the test
  /// scratch dir; chunk_size is small so every WAL body spans chunks.
  ClusterOptions durable(int shards) const {
    ClusterOptions options;
    options.shards = shards;
    options.data_dir = dir_;
    options.segment_store.dir = dir_ + "/segstore";
    options.segment_store.chunk_size = 1024;
    return options;
  }

  std::string dir_;
};

void apply_ops(Cluster& cluster, int count) {
  for (int i = 0; i < count; ++i) {
    switch (i % 4) {
      case 0:
        cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                             {700'000.0 + i, geo_of(i), 12'000.0 + i});
        break;
      case 1:
        cluster.store_float(make_float(80 + static_cast<std::uint64_t>(i)),
                            {650'000.0 + i, geo_of(i), 0.0});
        break;
      case 2:
        cluster.store_global(make_histogram(90 + static_cast<std::uint64_t>(i)),
                             {710'000.0 + i, geo_of(i), 0.0});
        break;
      default:
        cluster.store_plain({720'000.0 + i, geo_of(i + 1), 0.0});
        break;
    }
  }
}

void expect_store_stats_equal(const cloud::ServerStats& a,
                              const cloud::ServerStats& b) {
  EXPECT_EQ(a.images_stored, b.images_stored);
  EXPECT_DOUBLE_EQ(a.image_bytes_received, b.image_bytes_received);
  EXPECT_DOUBLE_EQ(a.feature_bytes_received, b.feature_bytes_received);
  EXPECT_EQ(a.unique_locations, b.unique_locations);
}

void expect_serves_like(Cluster& recovered, Cluster& reference, int ops) {
  for (int i = 0; i < ops; ++i) {
    if (i % 4 == 0) {
      const auto request = net::encode_binary_query(
          make_binary(50 + static_cast<std::uint64_t>(i)), idx::kDefaultTopK,
          9'000.0);
      EXPECT_EQ(recovered.handle(request), reference.handle(request))
          << "binary probe " << i;
    } else if (i % 4 == 1) {
      const auto request = net::encode_float_query(
          make_float(80 + static_cast<std::uint64_t>(i)), idx::kDefaultTopK,
          20'000.0);
      EXPECT_EQ(recovered.handle(request), reference.handle(request))
          << "float probe " << i;
    }
  }
  net::GlobalQueryRequest gq;
  gq.histogram = make_histogram(92);
  gq.geo = geo_of(2);
  gq.feature_bytes = 256.0;
  const auto request = net::encode(gq);
  EXPECT_EQ(recovered.handle(request), reference.handle(request));
}

TEST_F(StoreDurabilityTest, WalChunkRecoveryMatchesReferenceAcrossShardCounts) {
  constexpr int kOps = 12;
  for (int shards = 1; shards <= 3; ++shards) {
    std::filesystem::remove_all(dir_);
    const ClusterOptions options = durable(shards);
    {
      Cluster cluster(options);
      apply_ops(cluster, kOps);
    }  // no checkpoint: every record body lives as chunks referenced by WALs

    Cluster recovered(options);
    ClusterOptions in_memory;
    in_memory.shards = shards;
    Cluster reference(in_memory);
    apply_ops(reference, kOps);

    expect_store_stats_equal(recovered.stats(), reference.stats());
    expect_serves_like(recovered, reference, kOps);
  }
}

TEST_F(StoreDurabilityTest, SnapshotManifestCheckpointRecovers) {
  constexpr int kBefore = 8;
  constexpr int kAfter = 5;
  const ClusterOptions options = durable(2);
  {
    Cluster cluster(options);
    apply_ops(cluster, kBefore);
    cluster.checkpoint();
    for (int i = kBefore; i < kBefore + kAfter; ++i) {
      cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                           {700'000.0 + i, geo_of(i), 12'000.0 + i});
    }
  }
  // A checkpoint publishes snapshot.manifest; there is no inline
  // snapshot.bin format any more.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-0/snapshot.manifest"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/shard-0/snapshot.bin"));

  Cluster recovered(options);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  apply_ops(reference, kBefore);
  for (int i = kBefore; i < kBefore + kAfter; ++i) {
    reference.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                           {700'000.0 + i, geo_of(i), 12'000.0 + i});
  }

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kBefore);
}

TEST_F(StoreDurabilityTest, CompactionCyclePreservesRecovery) {
  // Small segments + an aggressive dead ratio: the checkpoint-time
  // compaction trigger actually rewrites segments, and recovery must still
  // match the in-memory reference afterwards.
  constexpr int kOps = 10;
  ClusterOptions options = durable(2);
  options.segment_store.segment_target_bytes = 8 * 1024;
  options.segment_store.compact_dead_ratio = 0.0;
  {
    Cluster cluster(options);
    apply_ops(cluster, kOps);
    cluster.checkpoint();  // WAL chunks die, snapshot chunks are born
    apply_ops(cluster, 0);
    cluster.checkpoint();  // second cycle rewrites the now-dead segments
    ASSERT_NE(cluster.segment_store(), nullptr);
    EXPECT_GT(cluster.segment_store()->stats().compactions, 0u);
    // An identical snapshot re-chunks to the same keys: pure dedup.
    EXPECT_GT(cluster.segment_store()->stats().dedup_hits, 0u);
  }

  Cluster recovered(options);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  apply_ops(reference, kOps);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps);
}

TEST_F(StoreDurabilityTest, RecoveredClusterSurvivesCheckpointAndRestart) {
  // Recovery re-pins every chunk it still references; a checkpoint right
  // after recovery (which unpins WAL chunks and compacts) must not free
  // anything the next restart needs.
  constexpr int kOps = 9;
  ClusterOptions options = durable(2);
  options.segment_store.segment_target_bytes = 8 * 1024;
  options.segment_store.compact_dead_ratio = 0.0;
  {
    Cluster cluster(options);
    apply_ops(cluster, kOps);
  }
  {
    Cluster recovered(options);
    recovered.checkpoint();
    recovered.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});
  }

  Cluster again(options);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  apply_ops(reference, kOps);
  reference.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});

  expect_store_stats_equal(again.stats(), reference.stats());
  expect_serves_like(again, reference, kOps);
}

TEST_F(StoreDurabilityTest, TornSegmentTailDropsOnlyTheLastRecord) {
  // Tear the tail of the newest segment file: the final WAL record's last
  // chunk is lost, so that record is unresolvable and must be dropped like
  // a torn WAL frame — everything before it recovers intact.
  constexpr int kOps = 6;  // last op is a store_float (has a chunked body)
  const ClusterOptions options = durable(1);
  {
    Cluster cluster(options);
    apply_ops(cluster, kOps);
  }
  std::filesystem::path newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/segstore")) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 5);

  Cluster recovered(options);
  ClusterOptions in_memory;
  in_memory.shards = 1;
  Cluster reference(in_memory);
  apply_ops(reference, kOps - 1);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps - 1);

  // The WAL accepts appends again and the next restart also succeeds.
  recovered.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});
}

TEST_F(StoreDurabilityTest, ChunkedWalRecordNeedsAStoreToDecode) {
  store::SegmentStore chunk_store({});
  WalRecord record;
  record.seq = 7;
  record.op = WalOp::kStoreBinary;
  record.info = {700'000.0, geo_of(0), 12'000.0};
  record.payload = std::vector<std::uint8_t>(3000, 0x5C);
  const store::Manifest manifest = chunk_store.put_payload(record.payload);
  const auto frame = encode_wal_record_chunked(record, manifest);

  // With the store the frame round-trips and reports its chunk keys...
  std::vector<store::ChunkKey> keys;
  const WalRecord decoded = decode_wal_record(frame, &chunk_store, &keys);
  EXPECT_EQ(decoded.payload, record.payload);
  EXPECT_EQ(keys, manifest.chunks);
  // ...without one it must fail loudly, never silently yield an empty body.
  EXPECT_THROW(decode_wal_record(frame), util::DecodeError);
}

}  // namespace
}  // namespace bees::serve
