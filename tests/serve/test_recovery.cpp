// Durability: a cluster rebuilt from its data directory must serve the
// same answers as one that never went down — whether it recovers from the
// WAL alone, a snapshot plus a WAL tail, or a WAL torn mid-record by a
// crash.  A durable cluster writes through a segment store of its own
// unless given one, and a shard dir in the retired store-less format is
// refused by name.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "features/global.hpp"
#include "features/orb.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "serve/cluster.hpp"
#include "serve/shard.hpp"
#include "store/segment_store.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
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

/// Fresh scratch directory per test.
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bees_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// The mutation script both the durable instance and the in-memory
/// reference replay; `count` lets the crash test cut it short.
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

void seed(Cluster& cluster) {
  for (int i = 0; i < 3; ++i) {
    cluster.seed_binary(make_binary(10 + static_cast<std::uint64_t>(i)),
                        geo_of(i), 11'000.0);
  }
  cluster.seed_float(make_float(20), geo_of(0));
  cluster.seed_global(make_histogram(30), geo_of(1));
}

void expect_store_stats_equal(const cloud::ServerStats& a,
                              const cloud::ServerStats& b) {
  EXPECT_EQ(a.images_stored, b.images_stored);
  EXPECT_DOUBLE_EQ(a.image_bytes_received, b.image_bytes_received);
  EXPECT_DOUBLE_EQ(a.feature_bytes_received, b.feature_bytes_received);
  EXPECT_EQ(a.unique_locations, b.unique_locations);
}

/// The sequence shard `shard_dir` of `data_dir` recovers to, read from a
/// copy of the whole dir: a probe must not open a second segment store on
/// segments a live cluster still appends to.
std::uint64_t recovered_seq(const std::string& data_dir,
                            const std::string& shard_dir) {
  const std::string copy = data_dir + "-probe";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(data_dir, copy,
                        std::filesystem::copy_options::recursive);
  std::uint64_t seq = 0;
  {
    store::SegmentStoreOptions store_options;
    store_options.dir = copy + "/segments";
    store::SegmentStore store(store_options);
    ShardOptions probe;
    probe.dir = copy + "/" + shard_dir;
    probe.segment_store = &store;
    seq = Shard(0, probe).last_applied_seq();
  }
  std::filesystem::remove_all(copy);
  return seq;
}

/// The recovered instance must answer every probe with the reference's
/// exact bytes.
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

TEST_F(RecoveryTest, WalOnlyRecoveryRestoresServingState) {
  constexpr int kOps = 12;
  ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir_;
  {
    Cluster cluster(durable);
    seed(cluster);
    apply_ops(cluster, kOps);
  }  // no checkpoint: everything lives in the WALs

  Cluster recovered(durable);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  seed(reference);
  apply_ops(reference, kOps);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps);
  // Recovery restores store-side accounting; query counters restart at
  // zero by design (queries are not journaled) — after identical probes
  // above, the counters line up again.
  EXPECT_EQ(recovered.stats().binary_queries, reference.stats().binary_queries);
}

TEST_F(RecoveryTest, SnapshotPlusWalTailRecovers) {
  constexpr int kBeforeCheckpoint = 8;
  constexpr int kAfter = 5;
  ClusterOptions durable;
  durable.shards = 3;
  durable.data_dir = dir_;
  {
    Cluster cluster(durable);
    seed(cluster);
    apply_ops(cluster, kBeforeCheckpoint);
    cluster.checkpoint();  // snapshot + WAL truncation
    for (int i = kBeforeCheckpoint; i < kBeforeCheckpoint + kAfter; ++i) {
      cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                           {700'000.0 + i, geo_of(i), 12'000.0 + i});
    }
  }

  Cluster recovered(durable);
  ClusterOptions in_memory;
  in_memory.shards = 3;
  Cluster reference(in_memory);
  seed(reference);
  apply_ops(reference, kBeforeCheckpoint);
  for (int i = kBeforeCheckpoint; i < kBeforeCheckpoint + kAfter; ++i) {
    reference.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                           {700'000.0 + i, geo_of(i), 12'000.0 + i});
  }

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kBeforeCheckpoint);
}

TEST_F(RecoveryTest, CheckpointWithKeptWalDoesNotDoubleApply) {
  // The crash window between "snapshot published" and "WAL truncated":
  // each shard's log is copied aside before the checkpoint and put back
  // once the cluster is gone, so the WAL still holds records the snapshot
  // covers.  Replay must skip them by sequence number.
  constexpr int kOps = 9;
  ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir_;
  std::vector<std::string> wals;
  for (int s = 0; s < durable.shards; ++s) {
    wals.push_back(dir_ + "/shard-" + std::to_string(s) + "/wal.log");
  }
  {
    Cluster cluster(durable);
    seed(cluster);
    apply_ops(cluster, kOps);
    for (const std::string& wal : wals) {
      std::filesystem::copy_file(wal, wal + ".kept");
    }
    cluster.checkpoint();
  }
  std::vector<std::uintmax_t> kept_sizes;
  for (const std::string& wal : wals) {
    std::filesystem::rename(wal + ".kept", wal);
    kept_sizes.push_back(std::filesystem::file_size(wal));
    ASSERT_GT(kept_sizes.back(), 0u) << wal;
  }

  Cluster recovered(durable);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  seed(reference);
  apply_ops(reference, kOps);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps);
  // Recovery truncates a log at the first frame it cannot decode, so a
  // log that kept its full length had every record skipped, none dropped.
  for (std::size_t s = 0; s < wals.size(); ++s) {
    EXPECT_EQ(std::filesystem::file_size(wals[s]), kept_sizes[s]) << wals[s];
  }
}

TEST_F(RecoveryTest, AutomaticCheckpointsRecover) {
  constexpr int kOps = 10;
  ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir_;
  durable.checkpoint_every = 3;
  {
    Cluster cluster(durable);
    seed(cluster);
    apply_ops(cluster, kOps);
  }

  Cluster recovered(durable);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  seed(reference);
  apply_ops(reference, kOps);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps);
}

TEST_F(RecoveryTest, CrashMidWalRecordRecoversTheIntactPrefix) {
  // Single shard so the WAL order equals the op order: tearing the last
  // frame's bytes must recover exactly the first kOps-1 operations.
  constexpr int kOps = 6;
  ClusterOptions durable;
  durable.shards = 1;
  durable.data_dir = dir_;
  {
    Cluster cluster(durable);
    apply_ops(cluster, kOps);
  }
  const std::string wal = dir_ + "/shard-0/wal.log";
  ASSERT_TRUE(std::filesystem::exists(wal));
  const auto full_size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, full_size - 5);  // simulated crash

  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  Cluster recovered(durable);
  const auto counters = obs::MetricsRegistry::global().snapshot().counters;
  obs::set_enabled(false);
  ASSERT_TRUE(counters.count("serve.wal.dropped_records"));
  EXPECT_DOUBLE_EQ(counters.at("serve.wal.dropped_records"), 1.0);

  ClusterOptions in_memory;
  in_memory.shards = 1;
  Cluster reference(in_memory);
  apply_ops(reference, kOps - 1);

  expect_store_stats_equal(recovered.stats(), reference.stats());
  expect_serves_like(recovered, reference, kOps - 1);

  // Recovery truncated the torn tail, so the WAL accepts appends again:
  // a post-crash store must survive the *next* restart too.
  recovered.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});
}

TEST_F(RecoveryTest, StoresAfterACrashSurviveTheNextRestart) {
  constexpr int kOps = 5;
  ClusterOptions durable;
  durable.shards = 1;
  durable.data_dir = dir_;
  {
    Cluster cluster(durable);
    apply_ops(cluster, kOps);
  }
  const std::string wal = dir_ + "/shard-0/wal.log";
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 3);

  {
    Cluster recovered(durable);
    recovered.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});
  }

  Cluster again(durable);
  ClusterOptions in_memory;
  in_memory.shards = 1;
  Cluster reference(in_memory);
  apply_ops(reference, kOps - 1);
  reference.store_binary(make_binary(999), {701'000.0, geo_of(0), 13'000.0});

  expect_store_stats_equal(again.stats(), reference.stats());
  const auto request = net::encode_binary_query(make_binary(999),
                                                idx::kDefaultTopK, 9'000.0);
  EXPECT_EQ(again.handle(request), reference.handle(request));
}

TEST_F(RecoveryTest, FailedShardCheckpointStillCheckpointsTheOthers) {
  // Shard 0's wal.log is replaced by a directory, so its checkpoint throws
  // when it reopens the log.  The shard after it must still be
  // checkpointed: its log truncated, its snapshot covering every record.
  ClusterOptions opts;
  opts.shards = 2;
  opts.data_dir = dir_;
  Cluster cluster(opts);
  seed(cluster);
  apply_ops(cluster, 12);

  const std::string wal1 = dir_ + "/shard-1/wal.log";
  const std::uint64_t shard1_seq = recovered_seq(dir_, "shard-1");
  ASSERT_GT(shard1_seq, 0u);
  ASSERT_GT(std::filesystem::file_size(wal1), 0u);

  const std::string wal0 = dir_ + "/shard-0/wal.log";
  std::filesystem::remove(wal0);
  std::filesystem::create_directory(wal0);
  EXPECT_THROW(cluster.checkpoint(), std::runtime_error);

  EXPECT_EQ(std::filesystem::file_size(wal1), 0u);
  // With an empty log, the sequence a reopened shard reaches is the
  // snapshot's.
  EXPECT_EQ(recovered_seq(dir_, "shard-1"), shard1_seq);
}

TEST_F(RecoveryTest, DurableClusterKeepsItsStoreUnderTheDataDir) {
  // No segment_store.dir: the cluster opens its store at
  // <data_dir>/segments, and a checkpoint publishes each shard's snapshot
  // as a manifest over that store's chunks.
  constexpr int kBeforeCheckpoint = 8;
  constexpr int kAfter = 3;
  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ClusterOptions durable;
    durable.shards = shards;
    durable.data_dir = dir_ + "/shards" + std::to_string(shards);
    const auto store_tail = [](Cluster& cluster) {
      for (int i = kBeforeCheckpoint; i < kBeforeCheckpoint + kAfter; ++i) {
        cluster.store_binary(make_binary(50 + static_cast<std::uint64_t>(i)),
                             {700'000.0 + i, geo_of(i), 12'000.0 + i});
      }
    };
    {
      Cluster cluster(durable);
      ASSERT_NE(cluster.segment_store(), nullptr);
      seed(cluster);
      apply_ops(cluster, kBeforeCheckpoint);
      cluster.checkpoint();
      store_tail(cluster);  // WAL records past the snapshot
    }
    const std::string segments = durable.data_dir + "/segments";
    ASSERT_TRUE(std::filesystem::is_directory(segments));
    EXPECT_FALSE(std::filesystem::is_empty(segments));
    for (int s = 0; s < shards; ++s) {
      const std::string shard =
          durable.data_dir + "/shard-" + std::to_string(s);
      EXPECT_TRUE(std::filesystem::exists(shard + "/snapshot.manifest"))
          << shard;
      EXPECT_FALSE(std::filesystem::exists(shard + "/snapshot.bin")) << shard;
    }

    Cluster recovered(durable);
    ClusterOptions in_memory;
    in_memory.shards = shards;
    Cluster reference(in_memory);
    seed(reference);
    apply_ops(reference, kBeforeCheckpoint);
    store_tail(reference);

    expect_store_stats_equal(recovered.stats(), reference.stats());
    expect_serves_like(recovered, reference, kBeforeCheckpoint + kAfter);
    EXPECT_EQ(recovered.stats().binary_queries,
              reference.stats().binary_queries);
  }
}

TEST_F(RecoveryTest, StorelessSnapshotIsRefusedByName) {
  // A shard dir as a store-less durable shard left it: an LZ-compressed
  // inline snapshot.bin.  Recovering around it would serve a shard that
  // silently lost its index, so the reopen must fail and name the file.
  Shard donor(0, ShardOptions{});
  WalRecord record;
  record.op = WalOp::kSeedBinary;
  record.info.geo = geo_of(0);
  record.payload = idx::serialize_binary(make_binary(10));
  donor.apply(record);
  const std::vector<std::uint8_t> bytes =
      util::lz_compress(donor.encode_snapshot());
  const std::string legacy = dir_ + "/shard-0/snapshot.bin";
  std::filesystem::create_directories(dir_ + "/shard-0");
  {
    std::ofstream out(legacy, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  ClusterOptions durable;
  durable.data_dir = dir_;
  try {
    Cluster reopened(durable);
    FAIL() << "a shard dir holding snapshot.bin recovered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(legacy), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(std::filesystem::exists(legacy));
}

TEST_F(RecoveryTest, DurableShardNeedsAStore) {
  // Both constructors refuse a durable dir without a segment store before
  // touching it; the snapshot-install one would otherwise wipe the dir.
  ShardOptions options;
  options.dir = dir_ + "/shard";
  std::filesystem::create_directories(options.dir);
  const std::string marker = options.dir + "/wal.log";
  { std::ofstream(marker) << "kept"; }
  EXPECT_THROW(Shard(0, options), std::invalid_argument);
  const std::vector<std::uint8_t> empty =
      Shard(0, ShardOptions{}).encode_snapshot();
  EXPECT_THROW(Shard(0, options, empty), std::invalid_argument);
  EXPECT_TRUE(std::filesystem::exists(marker));
}

TEST_F(RecoveryTest, FloatIndexSurvivesSnapshotRecovery) {
  ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir_;
  {
    Cluster cluster(durable);
    for (int i = 0; i < 4; ++i) {
      cluster.store_float(make_float(80 + static_cast<std::uint64_t>(i)),
                          {650'000.0 + i, geo_of(i), 0.0});
    }
    cluster.checkpoint();
  }

  Cluster recovered(durable);
  ClusterOptions in_memory;
  in_memory.shards = 2;
  Cluster reference(in_memory);
  for (int i = 0; i < 4; ++i) {
    reference.store_float(make_float(80 + static_cast<std::uint64_t>(i)),
                          {650'000.0 + i, geo_of(i), 0.0});
  }

  for (int i = 0; i < 4; ++i) {
    const auto request = net::encode_float_query(
        make_float(80 + static_cast<std::uint64_t>(i)), idx::kDefaultTopK,
        20'000.0);
    EXPECT_EQ(recovered.handle(request), reference.handle(request));
  }
}

TEST_F(RecoveryTest, AnnIndexRecoversIdenticalReplies) {
  // A recovered shard rebuilds its ANN state by re-sketching every image
  // it re-inserts, from the snapshot and from the WAL tail alike.  Every
  // reply after the reopen must equal the reply before it and the serial
  // server's: hits, similarities, candidates_checked and ops.
  idx::FeatureIndexParams binary_params;
  binary_params.ann.enabled = true;
  binary_params.ann.vocabulary.branching = 4;
  binary_params.ann.vocabulary.depth = 2;
  binary_params.ann.vocabulary_sample = 256;
  constexpr int kImages = 10;
  constexpr int kCheckpointed = 6;  // the rest live only in the WAL tail

  std::vector<feat::BinaryFeatures> queries;
  for (int i = 0; i < kImages; ++i) {
    const auto scene = 400 + static_cast<std::uint64_t>(i);
    queries.push_back(make_binary(scene));  // the stored view itself
    util::Rng rng(scene * 1000 + 1);        // and a fresh view of it
    queries.push_back(feat::extract_orb(img::render_view(
        img::SceneSpec{scene, 18, 4}, 200, 150, img::ViewPerturbation{},
        rng)));
  }
  const auto query_one = [](auto& backend, const feat::BinaryFeatures& q) {
    return backend.query_binary_batch({{&q, 9'000.0}}).front();
  };
  const auto expect_same = [](const idx::QueryResult& got,
                              const idx::QueryResult& want) {
    EXPECT_EQ(got.best_id, want.best_id);
    EXPECT_EQ(got.max_similarity, want.max_similarity);
    EXPECT_EQ(got.candidates_checked, want.candidates_checked);
    EXPECT_EQ(got.ops, want.ops);
    ASSERT_EQ(got.hits.size(), want.hits.size());
    for (std::size_t h = 0; h < want.hits.size(); ++h) {
      EXPECT_EQ(got.hits[h].id, want.hits[h].id);
      EXPECT_EQ(got.hits[h].similarity, want.hits[h].similarity);
    }
  };

  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ClusterOptions durable;
    durable.shards = shards;
    durable.data_dir = dir_ + "/shards" + std::to_string(shards);
    durable.binary_params = binary_params;
    cloud::Server serial(binary_params, {});
    std::vector<idx::QueryResult> before;
    {
      Cluster cluster(durable);
      for (int i = 0; i < kImages; ++i) {
        if (i == kCheckpointed) cluster.checkpoint();
        const cloud::StoreInfo info{700'000.0 + i, geo_of(i), 12'000.0 + i};
        const auto features = make_binary(400 + static_cast<std::uint64_t>(i));
        cluster.store_binary(features, info);
        serial.store_binary(features, info);
      }
      for (const auto& q : queries) {
        before.push_back(query_one(cluster, q));
      }
    }

    Cluster recovered(durable);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      const idx::QueryResult after = query_one(recovered, queries[q]);
      expect_same(after, before[q]);
      expect_same(after, query_one(serial, queries[q]));
    }
  }
}

TEST(ShardSnapshot, OversizedCountsAreDecodeErrors) {
  // An empty shard's snapshot: a 56-byte header and accounting block, then
  // the location-key, binary-gid and float-gid counts as one-byte zeros.
  const std::vector<std::uint8_t> empty = Shard(0, ShardOptions{})
                                              .encode_snapshot();
  constexpr std::size_t kCountsAt = 56;
  ASSERT_GT(empty.size(), kCountsAt + 3);
  EXPECT_NO_THROW(Shard(0, ShardOptions{}, empty));
  // Each count in turn claims 2^62 entries: the snapshot must be rejected
  // before anything is sized from it.
  for (std::size_t field = 0; field < 3; ++field) {
    ASSERT_EQ(empty[kCountsAt + field], 0u);
    util::ByteWriter w;
    w.put_bytes(std::span(empty).first(kCountsAt + field));
    w.put_varint(std::uint64_t{1} << 62);
    w.put_bytes(std::span(empty).subspan(kCountsAt + field + 1));
    EXPECT_THROW(Shard(0, ShardOptions{}, w.bytes()), util::DecodeError)
        << "count " << field;
  }
}

TEST(ShardSnapshot, UnorderedIdListsAreDecodeErrors) {
  // Global-id lookups binary-search a shard's local -> global id lists, so
  // a snapshot whose binary or float list repeats or steps down is refused.
  const auto snapshot_of = [](WalOp op,
                              const std::vector<std::uint8_t>& payload,
                              const std::vector<std::uint32_t>& gids) {
    Shard shard(0, ShardOptions{});
    for (const std::uint32_t gid : gids) {
      WalRecord record;
      record.op = op;
      record.global_id = gid;
      record.payload = payload;
      shard.apply(record);
    }
    return shard.encode_snapshot();
  };
  const std::vector<std::uint8_t> binary =
      idx::serialize_binary(make_binary(10));
  const std::vector<std::uint8_t> floats = idx::serialize_float(make_float(10));
  EXPECT_NO_THROW(Shard(0, ShardOptions{},
                        snapshot_of(WalOp::kSeedBinary, binary, {2, 5})));
  EXPECT_NO_THROW(Shard(0, ShardOptions{},
                        snapshot_of(WalOp::kSeedFloat, floats, {2, 5})));
  const std::vector<std::vector<std::uint32_t>> unordered = {{5, 2}, {3, 3}};
  for (const std::vector<std::uint32_t>& gids : unordered) {
    EXPECT_THROW(Shard(0, ShardOptions{},
                       snapshot_of(WalOp::kSeedBinary, binary, gids)),
                 util::DecodeError)
        << "binary " << gids[0] << ", " << gids[1];
    EXPECT_THROW(Shard(0, ShardOptions{},
                       snapshot_of(WalOp::kSeedFloat, floats, gids)),
                 util::DecodeError)
        << "float " << gids[0] << ", " << gids[1];
  }
}

}  // namespace
}  // namespace bees::serve
