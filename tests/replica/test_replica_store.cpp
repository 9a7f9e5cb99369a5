// Segment-store interactions of replication: a follower with frames still
// queued survives checkpoint + compaction cycles on the primary, a
// failover after those cycles still promotes a byte-equivalent follower,
// and a store-backed replicated cluster reopens with every store.  The
// concurrent case (queries racing a failover) is the ThreadSanitizer
// workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "replica/replication.hpp"
#include "serve/cluster.hpp"
#include "serve/shard.hpp"
#include "store/segment_store.hpp"
#include "util/rng.hpp"

namespace bees::replica {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

idx::GeoTag geo_of(int i) {
  return {2.29 + 0.01 * (i % 3), 48.85 + 0.002 * (i % 3), true};
}

serve::WalRecord binary_record(int i) {
  serve::WalRecord r;
  r.op = serve::WalOp::kStoreBinary;
  r.global_id = static_cast<std::uint32_t>(i);
  r.info = {700'000.0 + i, geo_of(i), 12'000.0 + i};
  r.payload =
      idx::serialize_binary(make_binary(50 + static_cast<std::uint64_t>(i)));
  return r;
}

class ReplicaStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bees_replica_store_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ReplicaStoreTest, ShipFramesSurviveCheckpointAndCompactionMidShip) {
  store::SegmentStoreOptions sopts;
  sopts.dir = dir_ + "/segstore";
  sopts.chunk_size = 512;                 // every snapshot spans chunks
  sopts.segment_target_bytes = 8 * 1024;  // segments seal as they fill
  sopts.compact_dead_ratio = 0.0;         // rewrite any segment with dead bytes
  store::SegmentStore store(sopts);

  serve::ShardOptions shard_opts;
  shard_opts.dir = dir_ + "/shard";
  shard_opts.segment_store = &store;
  shard_opts.checkpoint_every = 1;  // checkpoint the primary every apply

  // Fewer applies than kShipQueueCap keep every frame queued until the
  // drain below.
  ReplicationGroup group(0, shard_opts, /*followers=*/1);

  // Each apply checkpoints the primary immediately — truncating its WAL and
  // killing its previous snapshot generation — while the follower's frames
  // stay queued; compacting between applies reclaims every dead chunk.  A
  // queued frame carries its record inline, so none of this may reach it.
  for (int i = 0; i < 8; ++i) {
    group.apply(binary_record(i));
    store.maybe_compact();
  }
  ASSERT_EQ(group.instance(1).last_applied_seq(), 0u)
      << "frames must still be queued";
  EXPECT_GT(store.stats().compactions, 0u);

  group.drain_all();
  EXPECT_EQ(group.instance(1).last_applied_seq(), 8u);
  EXPECT_EQ(group.instance(1).encode_snapshot(),
            group.active().encode_snapshot());
}

TEST_F(ReplicaStoreTest, StoreBackedFailoverMatchesInMemoryReference) {
  serve::ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir_;
  durable.segment_store.dir = dir_ + "/segstore";
  durable.segment_store.chunk_size = 1024;
  durable.segment_store.compact_dead_ratio = 0.0;
  durable.checkpoint_every = 2;
  durable.backend_factory = make_replicated_factory(1);
  serve::Cluster cluster(durable);

  serve::ClusterOptions plain;
  plain.shards = 2;
  serve::Cluster reference(plain);

  for (int i = 0; i < 10; ++i) {
    const cloud::StoreInfo info{700'000.0 + i, geo_of(i), 12'000.0 + i};
    const auto features = make_binary(50 + static_cast<std::uint64_t>(i));
    cluster.store_binary(features, info);
    reference.store_binary(features, info);
  }
  cluster.checkpoint();  // unpins superseded snapshots, compacts

  for (int s = 0; s < 2; ++s) ASSERT_TRUE(cluster.kill_primary(s));

  for (int i = 0; i < 10; ++i) {
    const auto request = net::encode_binary_query(
        make_binary(50 + static_cast<std::uint64_t>(i)), idx::kDefaultTopK,
        9'000.0);
    EXPECT_EQ(cluster.handle(request), reference.handle(request))
        << "probe " << i;
  }
}

// Standbys lag the primary by up to a ship queue of frames, so reopening a
// store-backed replicated cluster snapshot-installs them.  That install
// must not compact the shared store: shards the cluster opens after it
// have not re-pinned their snapshot chunks yet.
void expect_reopen_recovers_every_store(const std::string& dir,
                                        std::size_t checkpoint_every) {
  constexpr int kImages = 40;
  serve::ClusterOptions durable;
  durable.shards = 4;
  durable.data_dir = dir;
  durable.segment_store.dir = dir + "/segstore";
  durable.checkpoint_every = checkpoint_every;
  durable.backend_factory = make_replicated_factory(1);
  serve::ClusterOptions plain;
  plain.shards = 4;
  serve::Cluster reference(plain);

  std::vector<feat::BinaryFeatures> features;
  {
    serve::Cluster cluster(durable);
    for (int i = 0; i < kImages; ++i) {
      // One place per image, so the router spreads them over every shard.
      const cloud::StoreInfo info{700'000.0 + i, {2.0 + 0.05 * i, 48.0, true},
                                  12'000.0 + i};
      features.push_back(make_binary(50 + static_cast<std::uint64_t>(i)));
      cluster.store_binary(features.back(), info);
      reference.store_binary(features.back(), info);
    }
  }  // No final checkpoint: the standbys still lag at destruction.

  for (int reopen = 0; reopen < 2; ++reopen) {
    serve::Cluster cluster(durable);
    EXPECT_EQ(cluster.stats().images_stored,
              static_cast<std::size_t>(kImages))
        << "reopen " << reopen;
    for (int i = 0; i < kImages; i += 5) {
      const auto request = net::encode_binary_query(
          features[static_cast<std::size_t>(i)], idx::kDefaultTopK, 9'000.0);
      EXPECT_EQ(cluster.handle(request), reference.handle(request))
          << "reopen " << reopen << " probe " << i;
    }
  }
}

TEST_F(ReplicaStoreTest, ReopenWithLaggingStandbysKeepsEveryStore) {
  expect_reopen_recovers_every_store(dir_, /*checkpoint_every=*/0);
}

TEST_F(ReplicaStoreTest, ReopenWithAutoCheckpointsKeepsEveryStore) {
  expect_reopen_recovers_every_store(dir_, /*checkpoint_every=*/8);
}

TEST(ReplicaConcurrent, QueriesRaceFailoverSafely) {
  serve::ClusterOptions copts;
  copts.shards = 2;
  copts.threads = 2;
  copts.backend_factory = make_replicated_factory(2);
  serve::Cluster cluster(copts);
  for (int i = 0; i < 6; ++i) {
    cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                         {700'000.0 + i, geo_of(i), 12'000.0 + i});
  }

  // Readers hammer the query plane (lock-free loads of the active index)
  // while the main thread mutates and fails shards over.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&cluster, t] {
      for (int i = 0; i < 40; ++i) {
        const auto request = net::encode_binary_query(
            make_binary(50 + static_cast<std::uint64_t>((t + i) % 6)),
            idx::kDefaultTopK, 9'000.0);
        const auto reply = cluster.handle(request);
        ASSERT_FALSE(reply.empty());
      }
    });
  }
  for (int i = 6; i < 18; ++i) {
    cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                         {700'000.0 + i, geo_of(i), 12'000.0 + i});
    if (i % 5 == 0) cluster.kill_primary(i % 2);
  }
  for (auto& t : readers) t.join();
  EXPECT_GE(cluster.resilience().failovers, 1u);
}

}  // namespace
}  // namespace bees::replica
