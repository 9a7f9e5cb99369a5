// Replication contract: shipping reaches apply-parity on drain, failover
// promotes a byte-equivalent follower (replies keep matching a serial
// server that never saw a kill), redelivery and gaps are caught, and a
// durable group restarted after a failover recovers the promoted timeline
// and snapshot-installs the stale instance.
#include "replica/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "features/global.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "serve/shard.hpp"
#include "serve/wal.hpp"
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

feat::ColorHistogram make_histogram(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::color_histogram(
      img::render_view(img::SceneSpec{seed, 18, 4}, 120, 90, pert, rng));
}

idx::GeoTag geo_of(int i) {
  return {2.29 + 0.01 * (i % 3), 48.85 + 0.002 * (i % 3), true};
}

serve::WalRecord binary_record(int i) {
  serve::WalRecord r;
  r.op = serve::WalOp::kStoreBinary;
  r.global_id = static_cast<std::uint32_t>(i);
  r.info = {700'000.0 + i, geo_of(i), 12'000.0 + i};
  r.payload = idx::serialize_binary(make_binary(50 + static_cast<std::uint64_t>(i)));
  return r;
}

/// The sequence the instance under `instance_dir` of `data_dir` recovers
/// to, read from a copy of the whole dir: a probe must not open a second
/// segment store on segments a live cluster still appends to.
std::uint64_t recovered_seq(const std::string& data_dir,
                            const std::string& instance_dir) {
  const std::string copy = data_dir + "-probe";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(data_dir, copy,
                        std::filesystem::copy_options::recursive);
  std::uint64_t seq = 0;
  {
    store::SegmentStoreOptions store_options;
    store_options.dir = copy + "/segments";
    store::SegmentStore store(store_options);
    serve::ShardOptions probe;
    probe.dir = copy + "/" + instance_dir;
    probe.segment_store = &store;
    seq = serve::Shard(0, probe).last_applied_seq();
  }
  std::filesystem::remove_all(copy);
  return seq;
}

class ReplicaDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bees_replica_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST(Replication, DrainReachesApplyParity) {
  ReplicationGroup group(0, serve::ShardOptions{}, /*followers=*/2);
  for (int i = 0; i < 5; ++i) group.apply(binary_record(i));
  ASSERT_EQ(group.active().last_applied_seq(), 5u);

  group.drain_all();
  EXPECT_EQ(group.instance(1).last_applied_seq(), 5u);
  EXPECT_EQ(group.instance(2).last_applied_seq(), 5u);
  const serve::BackendResilience r = group.resilience();
  EXPECT_EQ(r.ship_records, 10u);  // 5 records x 2 followers
  EXPECT_GT(r.ship_bytes, 0u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.live_standbys, 2u);
}

TEST(Replication, QueueCapBoundsLagAndForcesDrain) {
  ReplicationGroup group(0, serve::ShardOptions{}, /*followers=*/1);
  // Two full windows and two frames more; the payload is shared, since
  // only the queue is under test.
  constexpr std::size_t kApplies = 2 * kShipQueueCap + 2;
  const serve::WalRecord record = binary_record(0);
  for (std::size_t i = 0; i < kApplies; ++i) {
    serve::WalRecord next = record;
    next.global_id = static_cast<std::uint32_t>(i);
    group.apply(std::move(next));
  }
  // The queue drains whenever it reaches the cap: the follower has
  // acknowledged the two full windows, and peak lag is exactly the cap.
  EXPECT_EQ(group.instance(1).last_applied_seq(), 2 * kShipQueueCap);
  EXPECT_EQ(group.resilience().ship_lag_max, kShipQueueCap);
  group.drain_all();
  EXPECT_EQ(group.instance(1).last_applied_seq(), kApplies);
}

TEST(Replication, ApplyReplicatedRedeliveryAndGap) {
  serve::Shard follower(0, serve::ShardOptions{});
  serve::WalRecord r1 = binary_record(0);
  r1.seq = 1;
  EXPECT_NE(follower.apply_replicated(r1), idx::kInvalidImageId);
  EXPECT_EQ(follower.last_applied_seq(), 1u);

  // Redelivery below the applied sequence is an idempotent no-op.
  EXPECT_EQ(follower.apply_replicated(r1), idx::kInvalidImageId);
  EXPECT_EQ(follower.last_applied_seq(), 1u);

  // A gap means applying past a hole: refused loudly, not diverged.
  serve::WalRecord r3 = binary_record(2);
  r3.seq = 3;
  EXPECT_THROW(follower.apply_replicated(r3), std::logic_error);
  EXPECT_EQ(follower.last_applied_seq(), 1u);
}

TEST(Replication, KillRefusedWithoutStandby) {
  ReplicationGroup group(0, serve::ShardOptions{}, /*followers=*/0);
  group.apply(binary_record(0));
  EXPECT_FALSE(group.kill_active());
  EXPECT_EQ(group.resilience().failovers, 0u);

  // A 1-follower group survives exactly one kill.
  ReplicationGroup pair(0, serve::ShardOptions{}, /*followers=*/1);
  EXPECT_TRUE(pair.kill_active());
  EXPECT_FALSE(pair.kill_active());
  EXPECT_EQ(pair.resilience().failovers, 1u);
  EXPECT_EQ(pair.resilience().live_standbys, 0u);
}

TEST(Replication, UnreplicatedClusterRefusesKill) {
  serve::ClusterOptions copts;
  copts.shards = 2;
  serve::Cluster cluster(copts);
  EXPECT_FALSE(cluster.kill_primary(0));
  EXPECT_FALSE(cluster.kill_primary(-1));
  EXPECT_FALSE(cluster.kill_primary(99));
}

/// The mixed workload the failover equivalence tests drive (uploads and
/// queries of every message type), mirroring the cluster suite.
std::vector<std::vector<std::uint8_t>> workload_requests() {
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < 8; ++i) {
    net::ImageUploadRequest up;
    up.features = make_binary(500 + static_cast<std::uint64_t>(i));
    up.image_bytes = 700'000.0 + 1'000.0 * i;
    up.geo = geo_of(i);
    up.thumbnail_bytes = 12'000.0 + 100.0 * i;
    requests.push_back(net::encode(up));

    net::BinaryQueryRequest q;
    q.features = make_binary(500 + static_cast<std::uint64_t>(i));
    q.feature_bytes = 9'000.0 + 10.0 * i;
    requests.push_back(net::encode(q));

    net::GlobalUploadRequest gup;
    gup.histogram = make_histogram(900 + static_cast<std::uint64_t>(i));
    gup.image_bytes = 710'000.0;
    gup.geo = geo_of(i);
    requests.push_back(net::encode(gup));

    net::GlobalQueryRequest gq;
    gq.histogram = make_histogram(900 + static_cast<std::uint64_t>(i));
    gq.geo = geo_of(i);
    gq.feature_bytes = 256.0;
    requests.push_back(net::encode(gq));
  }
  return requests;
}

/// (shards, kill after this many requests)
class FailoverEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FailoverEquivalence, RepliesMatchSerialAcrossKill) {
  const int shards = std::get<0>(GetParam());
  const int kill_at = std::get<1>(GetParam());

  cloud::Server server;
  serve::ClusterOptions copts;
  copts.shards = shards;
  copts.backend_factory = make_replicated_factory(2);
  serve::Cluster cluster(copts);

  const auto requests = workload_requests();
  int step = 0;
  for (const auto& request : requests) {
    if (step == kill_at) {
      for (int s = 0; s < shards; ++s) {
        ASSERT_TRUE(cluster.kill_primary(s)) << "shard " << s;
      }
    }
    const auto serial = cloud::dispatch(server, request);
    const auto replicated = cluster.handle(request);
    ASSERT_EQ(replicated, serial)
        << "shards=" << shards << " kill_at=" << kill_at << " step=" << step;
    ++step;
  }
  const serve::BackendResilience r = cluster.resilience();
  EXPECT_EQ(r.failovers, static_cast<std::uint64_t>(shards));
  EXPECT_EQ(r.live_standbys, static_cast<std::uint64_t>(shards));

  // A second kill (promoting the last standby) must preserve equivalence
  // too: rerun the query half of the workload against both sides.
  for (int s = 0; s < shards; ++s) ASSERT_TRUE(cluster.kill_primary(s));
  net::BinaryQueryRequest q;
  q.features = make_binary(503);
  q.feature_bytes = 9'000.0;
  EXPECT_EQ(cluster.handle(net::encode(q)),
            cloud::dispatch(server, net::encode(q)));
}

INSTANTIATE_TEST_SUITE_P(ShardsAndKillPoints, FailoverEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 7, 16, 31)));

TEST_F(ReplicaDirTest, RestartAfterFailoverRecoversPromotedTimeline) {
  store::SegmentStoreOptions store_options;
  store_options.dir = dir_ + "/segments";
  serve::ShardOptions sopts;
  sopts.dir = dir_ + "/group";

  {
    store::SegmentStore store(store_options);
    sopts.segment_store = &store;
    ReplicationGroup group(0, sopts, /*followers=*/1);
    for (int i = 0; i < 4; ++i) group.apply(binary_record(i));
    ASSERT_TRUE(group.kill_active());
    EXPECT_EQ(group.active_index(), 1);
    // Mutations continue on the promoted primary; the dead instance's dir
    // goes stale at seq 4.
    for (int i = 4; i < 7; ++i) group.apply(binary_record(i));
    ASSERT_EQ(group.active().last_applied_seq(), 7u);
  }

  store::SegmentStore store(store_options);
  sopts.segment_store = &store;
  ReplicationGroup restarted(0, sopts, /*followers=*/1);
  // The term file names the promoted instance; the stale dir was
  // snapshot-installed up to the promoted timeline.
  EXPECT_EQ(restarted.active_index(), 1);
  EXPECT_EQ(restarted.resilience().failovers, 1u);
  EXPECT_EQ(restarted.resilience().catch_ups, 1u);
  EXPECT_EQ(restarted.active().last_applied_seq(), 7u);
  EXPECT_EQ(restarted.instance(0).last_applied_seq(), 7u);

  // Failing back over to the reinstalled instance yields identical state.
  const std::vector<std::uint8_t> before =
      restarted.active().encode_snapshot();
  ASSERT_TRUE(restarted.kill_active());
  EXPECT_EQ(restarted.active_index(), 0);
  EXPECT_EQ(restarted.active().encode_snapshot(), before);
}

TEST_F(ReplicaDirTest, CatchUpKeepsTheGroupDir) {
  // Instance 0 lives at the group dir itself, beside the term file and the
  // followers' dirs.  Catching it up after a failover must replace only
  // what that shard owns, across every later reopen.
  store::SegmentStoreOptions store_options;
  store_options.dir = dir_ + "/segments";
  serve::ShardOptions sopts;
  sopts.dir = dir_ + "/group";
  const std::string term = sopts.dir + "/replica.term";
  const std::string follower = sopts.dir + "/replica-1";

  {
    store::SegmentStore store(store_options);
    sopts.segment_store = &store;
    ReplicationGroup group(0, sopts, /*followers=*/1);
    for (int i = 0; i < 4; ++i) group.apply(binary_record(i));
    ASSERT_TRUE(group.kill_active());
    for (int i = 4; i < 7; ++i) group.apply(binary_record(i));
  }
  {
    // The stale primary is caught up to seq 7 here.
    store::SegmentStore store(store_options);
    sopts.segment_store = &store;
    ReplicationGroup group(0, sopts, /*followers=*/1);
    EXPECT_EQ(group.resilience().catch_ups, 1u);
    EXPECT_TRUE(std::filesystem::exists(term));
    EXPECT_TRUE(std::filesystem::exists(follower + "/wal.log"));
    for (int i = 7; i < 9; ++i) group.apply(binary_record(i));
    EXPECT_NO_THROW(group.checkpoint());
  }

  store::SegmentStore store(store_options);
  sopts.segment_store = &store;
  ReplicationGroup group(0, sopts, /*followers=*/1);
  EXPECT_TRUE(std::filesystem::exists(term));
  EXPECT_TRUE(std::filesystem::exists(follower + "/snapshot.manifest"));
  EXPECT_EQ(group.active_index(), 1);
  EXPECT_EQ(group.resilience().failovers, 1u);
  EXPECT_EQ(group.active().last_applied_seq(), 9u);
  EXPECT_EQ(group.active().stats().images_stored, 9u);
  EXPECT_EQ(group.instance(0).last_applied_seq(), 9u);
}

TEST_F(ReplicaDirTest, CatchUpReleasesTheStaleSnapshotPins) {
  // The stale primary's recovery pins the snapshot it checkpointed at seq
  // 4.  Once the caught-up instance publishes its own manifest, nothing
  // references those chunks: the store must count live and dead bytes as a
  // fresh open of the same dirs does.
  store::SegmentStoreOptions store_options;
  store_options.dir = dir_ + "/segments";
  serve::ShardOptions sopts;
  sopts.dir = dir_ + "/group";
  {
    store::SegmentStore store(store_options);
    sopts.segment_store = &store;
    ReplicationGroup group(0, sopts, /*followers=*/1);
    for (int i = 0; i < 4; ++i) group.apply(binary_record(i));
    group.checkpoint();
    ASSERT_TRUE(group.kill_active());
    for (int i = 4; i < 8; ++i) group.apply(binary_record(i));
    group.checkpoint();
  }

  store::SegmentStore store(store_options);
  sopts.segment_store = &store;
  ReplicationGroup group(0, sopts, /*followers=*/1);
  ASSERT_EQ(group.resilience().catch_ups, 1u);
  group.checkpoint();
  const store::SegmentStore::Stats reopened = store.stats();

  const std::string copy = dir_ + "-copy";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir_, copy, std::filesystem::copy_options::recursive);
  {
    store::SegmentStoreOptions copy_store_options;
    copy_store_options.dir = copy + "/segments";
    store::SegmentStore copy_store(copy_store_options);
    serve::ShardOptions copy_options = sopts;
    copy_options.dir = copy + "/group";
    copy_options.segment_store = &copy_store;
    const ReplicationGroup fresh(0, copy_options, /*followers=*/1);
    EXPECT_EQ(fresh.resilience().catch_ups, 0u);
    const store::SegmentStore::Stats expected = copy_store.stats();
    EXPECT_EQ(reopened.live_bytes, expected.live_bytes);
    EXPECT_EQ(reopened.dead_bytes, expected.dead_bytes);
  }
  std::filesystem::remove_all(copy);
}

TEST_F(ReplicaDirTest, DurableClusterSurvivesKillAndRestart) {
  cloud::Server server;
  const auto requests = workload_requests();

  serve::ClusterOptions copts;
  copts.shards = 2;
  copts.data_dir = dir_;
  copts.backend_factory = make_replicated_factory(1);
  {
    serve::Cluster cluster(copts);
    int step = 0;
    for (const auto& request : requests) {
      if (step == static_cast<int>(requests.size()) / 2) {
        for (int s = 0; s < copts.shards; ++s) {
          ASSERT_TRUE(cluster.kill_primary(s));
        }
      }
      const auto serial = cloud::dispatch(server, request);
      ASSERT_EQ(cluster.handle(request), serial) << "step=" << step;
      ++step;
    }
    cluster.checkpoint();
  }

  // Restart: the promoted timelines recover, and replies keep matching the
  // serial server that saw everything exactly once.
  serve::Cluster restarted(copts);
  EXPECT_EQ(restarted.resilience().failovers, 2u);
  net::BinaryQueryRequest q;
  q.features = make_binary(505);
  q.feature_bytes = 9'000.0;
  EXPECT_EQ(restarted.handle(net::encode(q)),
            cloud::dispatch(server, net::encode(q)));
}

TEST_F(ReplicaDirTest, FailedPrimaryAppendKeepsFailoverWorking) {
  // A primary append that fails must not consume a sequence number, or the
  // primary ships seq N+2 after N and the drain that checkpoint and
  // failover force throws on the gap.  The primary's wal.log is replaced
  // by a directory so the checkpoint's reopen of the log fails, and the
  // append after it too; restoring it lets the next checkpoint reopen it.
  cloud::Server server;
  serve::ClusterOptions copts;
  copts.data_dir = dir_;
  copts.backend_factory = make_replicated_factory(1);
  serve::Cluster cluster(copts);
  const auto requests = workload_requests();
  const std::size_t half = requests.size() / 2;  // an upload comes next
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(cluster.handle(requests[i]),
              cloud::dispatch(server, requests[i]))
        << "step=" << i;
  }

  const std::string wal = dir_ + "/shard-0/wal.log";
  std::filesystem::remove(wal);
  std::filesystem::create_directory(wal);
  EXPECT_THROW(cluster.checkpoint(), std::runtime_error);
  const auto failed = net::open_envelope(cluster.handle(requests[half]));
  EXPECT_EQ(failed.type, net::MessageType::kError);
  std::filesystem::remove(wal);
  cluster.checkpoint();

  // The serial server never saw the failed upload: it is resent, and every
  // reply matches across a failover.
  for (std::size_t i = half; i < requests.size(); ++i) {
    if (i == half + 4) {
      ASSERT_TRUE(cluster.kill_primary(0));
    }
    ASSERT_EQ(cluster.handle(requests[i]),
              cloud::dispatch(server, requests[i]))
        << "step=" << i;
  }
  EXPECT_EQ(cluster.resilience().failovers, 1u);
}

TEST_F(ReplicaDirTest, FailedPrimaryCheckpointStillCheckpointsFollowers) {
  // The primary's wal.log is replaced by a directory, so its checkpoint
  // throws when it reopens the log.  The follower must still be
  // checkpointed: its log truncated, its snapshot as far as the primary's.
  serve::ClusterOptions copts;
  copts.data_dir = dir_;
  copts.backend_factory = make_replicated_factory(1);
  serve::Cluster cluster(copts);
  for (const auto& request : workload_requests()) cluster.handle(request);

  const std::string wal = dir_ + "/shard-0/wal.log";
  std::filesystem::remove(wal);
  std::filesystem::create_directory(wal);
  EXPECT_THROW(cluster.checkpoint(), std::runtime_error);
  const std::string follower = dir_ + "/shard-0/replica-1";
  EXPECT_EQ(std::filesystem::file_size(follower + "/wal.log"), 0u);

  // The primary published its snapshot before its log failed; with the
  // log gone, each instance reopens at its snapshot's sequence.
  std::filesystem::remove(wal);
  const std::uint64_t primary_seq = recovered_seq(dir_, "shard-0");
  ASSERT_GT(primary_seq, 0u);
  EXPECT_EQ(recovered_seq(dir_, "shard-0/replica-1"), primary_seq);
}

}  // namespace
}  // namespace bees::replica
