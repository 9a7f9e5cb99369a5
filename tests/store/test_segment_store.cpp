// Segment store behavior: round-trips, dedup, reopen/rescan, pinning,
// compaction (including the disk ceiling), and cache accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "store/segment_store.hpp"
#include "util/rng.hpp"

namespace bees::store {
namespace {

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::vector<std::uint8_t> compressible_payload(std::size_t n,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  std::size_t i = 0;
  while (i < n) {
    const auto run = 16 + static_cast<std::size_t>(rng.next_u64() % 48);
    const auto byte = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t j = 0; j < run && i < n; ++j) out[i++] = byte;
  }
  return out;
}

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bees_store_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SegmentStoreTest, PutGetRoundTripMemoryMode) {
  SegmentStore store({});  // no dir: memory-backed
  const auto a = random_payload(1000, 1);
  const auto b = compressible_payload(1000, 2);
  const ChunkKey ka = store.put(a);
  const ChunkKey kb = store.put(b);
  EXPECT_NE(ka, kb);
  EXPECT_TRUE(store.contains(ka));
  EXPECT_EQ(store.get(ka), a);
  EXPECT_EQ(store.get(kb), b);
  EXPECT_THROW(store.get(ChunkKey{1, 2, 3}), util::DecodeError);
}

TEST_F(SegmentStoreTest, DedupSecondPutIsFree) {
  SegmentStore store({});
  const auto payload = random_payload(5000, 3);
  const ChunkKey k1 = store.put(payload);
  const auto disk_after_first = store.stats().disk_bytes;
  const ChunkKey k2 = store.put(payload);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(store.stats().disk_bytes, disk_after_first);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  EXPECT_EQ(store.stats().chunks, 1u);
}

TEST_F(SegmentStoreTest, PayloadRoundTripAcrossChunks) {
  SegmentStoreOptions options;
  options.chunk_size = 1024;
  SegmentStore store(options);
  const auto payload = random_payload(10'000, 4);
  const Manifest m = store.put_payload(payload);
  EXPECT_EQ(m.chunks.size(), 10u);
  EXPECT_EQ(store.get_payload(m), payload);
}

TEST_F(SegmentStoreTest, PutManifestPayloadReportsNewChunks) {
  SegmentStoreOptions options;
  options.chunk_size = 1024;
  SegmentStore store(options);
  auto payload = random_payload(4096, 5);
  const Manifest m = build_manifest(payload, 1024);
  EXPECT_EQ(store.put_manifest_payload(m, payload), 4u);
  EXPECT_EQ(store.put_manifest_payload(m, payload), 0u);  // all dedup now
}

TEST_F(SegmentStoreTest, ReopenRescansSegments) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.chunk_size = 2048;
  Manifest m;
  const auto payload = compressible_payload(9000, 6);
  {
    SegmentStore store(options);
    m = store.put_payload(payload);
  }
  SegmentStore reopened(options);
  for (const ChunkKey& key : m.chunks) EXPECT_TRUE(reopened.contains(key));
  EXPECT_EQ(reopened.get_payload(m), payload);
  // Rebuilt directory starts unpinned: everything is reclaimable until the
  // owners re-pin.
  EXPECT_EQ(reopened.stats().live_bytes, 0u);
}

TEST_F(SegmentStoreTest, SegmentsRollAtTargetBytes) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.segment_target_bytes = 4096;
  SegmentStore store(options);
  for (int i = 0; i < 8; ++i) store.put(random_payload(2048, 100 + i));
  EXPECT_GT(store.stats().segments, 1u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, store.stats().segments);
}

TEST_F(SegmentStoreTest, PinProtectsFromCompactionUnpinnedDropped) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.segment_target_bytes = 1;  // one chunk per segment, sealed fast
  SegmentStore store(options);
  const auto keep_bytes = random_payload(800, 7);
  const auto drop_bytes = random_payload(800, 8);
  const ChunkKey keep = store.put(keep_bytes);
  const ChunkKey drop = store.put(drop_bytes);
  store.put(random_payload(100, 9));  // seals drop's segment
  store.pin({keep});

  EXPECT_GT(store.compact(0.0), 0u);
  EXPECT_TRUE(store.contains(keep));
  EXPECT_EQ(store.get(keep), keep_bytes);
  EXPECT_FALSE(store.contains(drop));
  EXPECT_THROW(store.get(drop), util::DecodeError);
  EXPECT_THROW(store.pin({drop}), util::DecodeError);
  store.unpin(drop);  // unpin of an absent key is ignored
}

TEST_F(SegmentStoreTest, PinnedChunksSurviveCompactionAndReopen) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.chunk_size = 512;
  options.segment_target_bytes = 1024;
  Manifest m;
  const auto payload = random_payload(4096, 10);
  {
    SegmentStore store(options);
    m = store.put_payload(payload);
    store.pin(m.chunks);
    for (int i = 0; i < 6; ++i) store.put(random_payload(700, 20 + i));
    store.compact(0.0);
    EXPECT_EQ(store.get_payload(m), payload);
  }
  SegmentStore reopened(options);
  reopened.pin(m.chunks);
  EXPECT_EQ(reopened.get_payload(m), payload);
}

TEST_F(SegmentStoreTest, PutPayloadPinnedIsPinnedOnReturn) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.chunk_size = 512;
  options.segment_target_bytes = 1;  // one chunk per segment, sealed fast
  SegmentStore store(options);
  const auto payload = random_payload(2048, 70);
  const Manifest m = store.put_payload_pinned(payload);
  store.put(random_payload(100, 71));  // seals the payload's segments
  // Pins were taken atomically with the put: an aggressive compaction pass
  // (the race a concurrent owner's maybe_compact would run) reclaims
  // nothing of the payload.
  store.compact(0.0);
  EXPECT_EQ(store.get_payload(m), payload);
  // Releasing the pins makes the chunks reclaimable as usual.
  store.unpin(m.chunks);
  EXPECT_GT(store.compact(0.0), 0u);
  EXPECT_THROW(store.get_payload(m), util::DecodeError);
}

TEST_F(SegmentStoreTest, PutPayloadPinnedRestoresChunksReclaimedMidPut) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.chunk_size = 512;
  options.segment_target_bytes = 1;
  SegmentStore store(options);
  const auto payload = random_payload(2048, 72);
  // First put leaves the chunks unpinned; sealing + compacting reclaims
  // them all — the state a concurrent compaction would produce between
  // put_manifest_payload's presence check and its append pass.
  const Manifest first = store.put_payload(payload);
  store.put(random_payload(100, 73));
  store.compact(0.0);
  EXPECT_THROW(store.get_payload(first), util::DecodeError);
  // put_payload_pinned must land every chunk again and pin it.
  const Manifest m = store.put_payload_pinned(payload);
  EXPECT_EQ(m, first);
  store.put(random_payload(100, 74));
  store.compact(0.0);
  EXPECT_EQ(store.get_payload(m), payload);
}

TEST_F(SegmentStoreTest, CompactionFlushesMovedChunksBeforeDeletingVictim) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.segment_target_bytes = 4096;
  SegmentStore store(options);
  const auto keep_bytes = random_payload(900, 80);
  const ChunkKey keep = store.put(keep_bytes);
  store.put(random_payload(900, 81));   // dead filler, same segment
  store.put(random_payload(4096, 82));  // pushes the segment past target
  store.put(random_payload(100, 83));   // rolls over, sealing the victim
  store.pin({keep});
  EXPECT_GT(store.compact(0.5), 0u);  // moves `keep` into the open segment

  // Snapshot the directory as a crash right after compaction would leave
  // it, the writing store still open.  The moved chunk
  // must already be on disk: its only other copy was just deleted.
  const std::string crash_dir = dir_ + "_crash";
  std::filesystem::remove_all(crash_dir);
  std::filesystem::copy(dir_, crash_dir);
  SegmentStoreOptions reopen_options = options;
  reopen_options.dir = crash_dir;
  SegmentStore reopened(reopen_options);
  EXPECT_TRUE(reopened.contains(keep));
  EXPECT_EQ(reopened.get(keep), keep_bytes);
  std::filesystem::remove_all(crash_dir);
}

TEST_F(SegmentStoreTest, MaybeCompactEnforcesDiskCeiling) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.chunk_size = 1024;
  options.segment_target_bytes = 2048;
  options.disk_ceiling_bytes = 16 * 1024;
  SegmentStore store(options);
  // Mostly dead data (never pinned) far past the ceiling, plus one pinned
  // payload that must survive.
  const auto keep = random_payload(2000, 30);
  const Manifest m = store.put_payload(keep);
  store.pin(m.chunks);
  for (int i = 0; i < 64; ++i) store.put(random_payload(1000, 1000 + i));
  EXPECT_GT(store.disk_bytes(), options.disk_ceiling_bytes);

  EXPECT_GT(store.maybe_compact(), 0u);
  EXPECT_LE(store.disk_bytes(), options.disk_ceiling_bytes);
  EXPECT_EQ(store.get_payload(m), keep);
}

TEST_F(SegmentStoreTest, LruCacheCountsHitsAndMisses) {
  SegmentStoreOptions options;
  options.dir = dir_;
  SegmentStore store(options);
  // The cache counts raw bytes, so compressible chunks fill it as fast as
  // random ones and compress far faster.
  constexpr std::size_t kChunk = kChunkCacheBytes / 2;
  const auto a = compressible_payload(kChunk, 40);
  const auto b = compressible_payload(kChunk, 41);
  const auto c = compressible_payload(kChunk, 42);
  const ChunkKey ka = store.put(a);
  const ChunkKey kb = store.put(b);
  const ChunkKey kc = store.put(c);
  // The cache is read-through: first get misses and fills, second hits.
  store.get(kc);
  store.get(kc);
  const auto stats = store.stats();
  EXPECT_GT(stats.cache_hits, 0u);
  // Capacity holds two raw chunks: reading all three in rotation must miss.
  store.get(ka);
  store.get(kb);
  store.get(kc);
  EXPECT_GT(store.stats().cache_misses, stats.cache_misses);
  EXPECT_EQ(store.get(ka), a);
}

TEST_F(SegmentStoreTest, StatsTrackRawAndStoredBytes) {
  SegmentStore store({});
  const auto payload = compressible_payload(8192, 60);
  const Manifest m = store.put_payload(payload);
  store.pin(m.chunks);
  const auto stats = store.stats();
  EXPECT_EQ(stats.raw_bytes, payload.size());
  EXPECT_GT(stats.live_bytes, 0u);
  EXPECT_EQ(stats.dead_bytes, 0u);
  // Compressible data stores smaller than raw.
  EXPECT_LT(stats.live_bytes, stats.raw_bytes);
}

TEST_F(SegmentStoreTest, PutAcrossFailedSegmentOpenThrowsAndKeepsNothing) {
  SegmentStoreOptions options;
  options.dir = dir_;
  options.segment_target_bytes = 1;  // every record rolls to a new segment
  const auto a = random_payload(500, 90);
  const auto b = random_payload(500, 91);
  const ChunkKey kb = build_manifest(b, options.chunk_size).chunks[0];
  ChunkKey ka;
  {
    SegmentStore store(options);
    ka = store.put(a);  // fills seg-000000; the next record rolls over
    const std::string blocked = dir_ + "/seg-000001.bsg";
    std::filesystem::create_directory(blocked);
    EXPECT_THROW(store.put_payload_pinned(b), std::runtime_error);
    EXPECT_FALSE(store.contains(kb));
    EXPECT_EQ(store.stats().live_bytes, 0u);  // no pin left behind
    EXPECT_THROW(store.put(b), std::runtime_error);  // still blocked

    // Once the path is free the store writes again.
    std::filesystem::remove(blocked);
    EXPECT_EQ(store.put(b), kb);
    EXPECT_EQ(store.get(kb), b);
  }
  SegmentStore reopened(options);
  EXPECT_EQ(reopened.get(ka), a);
  EXPECT_EQ(reopened.get(kb), b);
}

TEST_F(SegmentStoreTest, PinOfKeysIsAllOrNothing) {
  SegmentStore store({});
  const ChunkKey present = store.put(random_payload(500, 92));
  const ChunkKey absent =
      build_manifest(random_payload(500, 93), store.chunk_size()).chunks[0];
  EXPECT_THROW(store.pin({present, absent}), util::DecodeError);
  EXPECT_EQ(store.stats().live_bytes, 0u);
}

}  // namespace
}  // namespace bees::store
