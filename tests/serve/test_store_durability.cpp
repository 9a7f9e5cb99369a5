// Store-backed durability: snapshots live as content-addressed chunks in
// the shared segment store and WAL records inline in each shard's log —
// recovery must still serve byte-identical answers across shard counts and
// checkpoint and compaction cycles, a torn segment tail under a snapshot
// must fail recovery loudly, and a chunked WAL frame an earlier build
// wrote must be refused, never dropped as a torn tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "features/global.hpp"
#include "features/orb.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "serve/wal.hpp"
#include "store/chunk.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"
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
  /// scratch dir; chunk_size is small so every snapshot spans many chunks.
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

void apply_ops(Cluster& cluster, int count, int first = 0) {
  for (int i = first; i < first + count; ++i) {
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

TEST_F(StoreDurabilityTest, WalRecoveryMatchesReferenceAcrossShardCounts) {
  constexpr int kOps = 12;
  for (int shards = 1; shards <= 3; ++shards) {
    std::filesystem::remove_all(dir_);
    const ClusterOptions options = durable(shards);
    {
      Cluster cluster(options);
      apply_ops(cluster, kOps);
    }  // no checkpoint: every record lives only in the shards' WALs

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
  constexpr int kBetween = 4;  // one op of each kind
  ClusterOptions options = durable(2);
  options.segment_store.segment_target_bytes = 8 * 1024;
  options.segment_store.compact_dead_ratio = 0.0;
  {
    Cluster cluster(options);
    apply_ops(cluster, kOps);
    cluster.checkpoint();  // the first snapshot generation is born
    apply_ops(cluster, kBetween);
    cluster.checkpoint();  // it dies: its now-dead segments are rewritten
    ASSERT_NE(cluster.segment_store(), nullptr);
    EXPECT_GT(cluster.segment_store()->stats().compactions, 0u);
    // An identical snapshot re-chunks to the same keys: pure dedup.
    const std::uint64_t hits = cluster.segment_store()->stats().dedup_hits;
    cluster.checkpoint();
    EXPECT_GT(cluster.segment_store()->stats().dedup_hits, hits);
  }

  Cluster recovered(options);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  apply_ops(reference, kOps);
  apply_ops(reference, kBetween);

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

TEST_F(StoreDurabilityTest, FailedCheckpointWriteKeepsSnapshotAndWalTail) {
  // A checkpoint whose snapshot cannot be written must fail loudly, publish
  // nothing and keep the WAL: the old snapshot plus the log tail still
  // recover every image.
  ClusterOptions options = durable(1);
  options.segment_store.segment_target_bytes = 1;  // a segment per chunk
  const std::string wal = dir_ + "/shard-0/wal.log";
  std::string blocked;
  {
    Cluster cluster(options);
    apply_ops(cluster, 5);
    cluster.checkpoint();
    apply_ops(cluster, 3, 5);
    // The snapshot's first new chunk rolls over to the next segment id:
    // make that path a directory, so the segment cannot be opened.
    std::uint64_t next_id = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.segment_store.dir)) {
      const std::string name = entry.path().filename().string();
      next_id = std::max<std::uint64_t>(next_id,
                                        std::stoull(name.substr(4, 6)) + 1);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "/seg-%06llu.bsg",
                  static_cast<unsigned long long>(next_id));
    blocked = options.segment_store.dir + name;
    std::filesystem::create_directory(blocked);
    const auto wal_bytes = std::filesystem::file_size(wal);
    ASSERT_GT(wal_bytes, 0u);
    EXPECT_THROW(cluster.checkpoint(), std::runtime_error);
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);
  }
  std::filesystem::remove(blocked);

  Cluster recovered(options);
  ClusterOptions in_memory;
  in_memory.shards = 1;
  Cluster reference(in_memory);
  apply_ops(reference, 8);
  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, 8);
}

TEST_F(StoreDurabilityTest, TornSegmentTailUnderASnapshotFailsRecovery) {
  // Tear the tail of the newest segment file, which holds the last chunk of
  // the only snapshot: its manifest no longer resolves, and recovery must
  // fail loudly rather than serve a shard that lost its index.
  const ClusterOptions options = durable(1);
  {
    Cluster cluster(options);
    apply_ops(cluster, 6);
    cluster.checkpoint();
  }
  std::filesystem::path newest;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/segstore")) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  ASSERT_FALSE(newest.empty());
  std::filesystem::resize_file(newest,
                               std::filesystem::file_size(newest) - 5);

  EXPECT_THROW(Cluster recovered(options), util::DecodeError);
}

TEST_F(StoreDurabilityTest, ChunkedWalFrameOfAnEarlierBuildIsRefused) {
  // Earlier builds wrote a durable shard's record bodies as segment-store
  // manifests, flagged by the op byte's high bit.  Such a frame was written
  // whole (its CRC holds), so dropping it as a torn tail would silently
  // truncate every record after it: recovery must refuse the log by name
  // and leave it as it is.
  const ClusterOptions options = durable(1);
  {
    Cluster cluster(options);
    apply_ops(cluster, 3);
  }
  const std::vector<std::uint8_t> payload(3000, 0x5C);
  util::ByteWriter body;
  body.put_u64(4);  // the record after the 3 logged ones
  body.put_u8(0x80 | static_cast<std::uint8_t>(WalOp::kStoreBinary));
  body.put_varint(3);
  body.put_f64(700'000.0);
  idx::put_geo(body, geo_of(0));
  body.put_f64(12'000.0);
  store::put_manifest(body, store::build_manifest(payload, 1024));
  util::ByteWriter frame;
  frame.put_u32(static_cast<std::uint32_t>(body.size()));
  frame.put_u32(util::crc32(body.bytes()));
  frame.put_bytes(body.bytes());

  const std::string wal = dir_ + "/shard-0/wal.log";
  {
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.bytes().data()),
              static_cast<std::streamsize>(frame.size()));
  }
  const auto length = std::filesystem::file_size(wal);

  try {
    Cluster recovered(options);
    ADD_FAILURE() << "a chunked WAL frame was recovered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(wal), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(std::filesystem::file_size(wal), length);
}

}  // namespace
}  // namespace bees::serve
