// Disk corruption must surface as util::DecodeError — never UB, a bad
// allocation, or silently wrong bytes.  Covers flipped chunk payloads
// (raw and compressed encodings), truncated segment tails, manifests
// referencing chunks the store does not hold, and mangled segment headers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/segment_store.hpp"
#include "util/rng.hpp"

namespace bees::store {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("bees_corrupt_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".bsg") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  void flip_byte(const fs::path& path, std::uint64_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  std::string dir_;
};

// Segment layout constants mirrored from segment_store.cpp: 8-byte file
// header ("BSEG" + version), 21-byte record header before each chunk body.
constexpr std::uint64_t kHeaderBytes = 8;
constexpr std::uint64_t kRecordHeaderBytes = 21;

TEST_F(StoreCorruptionTest, FlippedRawChunkFailsChecksumOnGet) {
  SegmentStoreOptions options;
  options.dir = dir_;
  ChunkKey key;
  {
    SegmentStore store(options);
    // Random bytes are incompressible, so the body is stored raw and a
    // single bit flip maps directly onto the chunk payload.
    key = store.put(random_payload(900, 1));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  flip_byte(files[0], kHeaderBytes + kRecordHeaderBytes + 17);

  SegmentStore reopened(options);
  // The scan only parses record headers, so the chunk is still indexed...
  EXPECT_TRUE(reopened.contains(key));
  // ...but reading it trips the CRC/content-hash check.
  EXPECT_THROW(reopened.get(key), util::DecodeError);
}

TEST_F(StoreCorruptionTest, FlippedCompressedChunkFailsOnGet) {
  SegmentStoreOptions options;
  options.dir = dir_;
  ChunkKey key;
  {
    SegmentStore store(options);
    key = store.put(std::vector<std::uint8_t>(4096, 0xAB));  // compresses
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  // Flip inside the LZ stream header, which every compressed body starts
  // with regardless of how small the data packed.
  flip_byte(files[0], kHeaderBytes + kRecordHeaderBytes + 2);

  SegmentStore reopened(options);
  // Either the LZ stream fails to parse or the decompressed bytes fail the
  // checksum; both must be a DecodeError.
  EXPECT_THROW(reopened.get(key), util::DecodeError);
}

TEST_F(StoreCorruptionTest, TruncatedTailDropsOnlyTheTornRecord) {
  SegmentStoreOptions options;
  options.dir = dir_;
  const auto first_bytes = random_payload(600, 2);
  ChunkKey first;
  ChunkKey second;
  {
    SegmentStore store(options);
    first = store.put(first_bytes);
    second = store.put(random_payload(600, 3));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  const std::uint64_t first_end = kHeaderBytes + kRecordHeaderBytes + 600;
  fs::resize_file(files[0], first_end + kRecordHeaderBytes + 37);

  SegmentStore reopened(options);
  EXPECT_TRUE(reopened.contains(first));
  EXPECT_EQ(reopened.get(first), first_bytes);
  EXPECT_FALSE(reopened.contains(second));
  EXPECT_THROW(reopened.get(second), util::DecodeError);
  // The torn tail is cut back to the last intact record boundary.
  EXPECT_EQ(fs::file_size(files[0]), first_end);
}

TEST_F(StoreCorruptionTest, TailShorterThanRecordHeaderIsTruncated) {
  SegmentStoreOptions options;
  options.dir = dir_;
  ChunkKey key;
  {
    SegmentStore store(options);
    key = store.put(random_payload(500, 4));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  const std::uint64_t end = fs::file_size(files[0]);
  std::ofstream(files[0], std::ios::binary | std::ios::app).write("abc", 3);

  SegmentStore reopened(options);
  EXPECT_EQ(reopened.get(key), random_payload(500, 4));
  EXPECT_EQ(fs::file_size(files[0]), end);
}

TEST_F(StoreCorruptionTest, ManifestReferencingMissingChunkIsClean) {
  SegmentStore store({});
  const auto payload = random_payload(5000, 5);
  const Manifest held = store.put_payload(payload, 1024);

  // A manifest for bytes the store never saw: lookup, reassembly, and pin
  // all fail cleanly.
  const Manifest foreign = build_manifest(random_payload(5000, 6), 1024);
  for (const ChunkKey& key : foreign.chunks) {
    EXPECT_FALSE(store.contains(key));
  }
  EXPECT_THROW(store.get_payload(foreign), util::DecodeError);
  EXPECT_THROW(store.pin(foreign.chunks), util::DecodeError);

  // A held manifest with one tampered key also fails on reassembly.
  Manifest tampered = held;
  tampered.chunks[2].hash ^= 1;
  EXPECT_THROW(store.get_payload(tampered), util::DecodeError);
  EXPECT_EQ(store.get_payload(held), payload);
}

TEST_F(StoreCorruptionTest, PayloadHashMismatchIsCaughtOnReassembly) {
  SegmentStore store({});
  const auto payload = random_payload(3000, 7);
  Manifest m = store.put_payload(payload, 1024);
  // Chunks all resolve, but the whole-payload hash was tampered with.
  m.content_hash ^= 1;
  EXPECT_THROW(store.get_payload(m), util::DecodeError);
}

TEST_F(StoreCorruptionTest, BadSegmentMagicRejectedOnOpen) {
  SegmentStoreOptions options;
  options.dir = dir_;
  {
    SegmentStore store(options);
    store.put(random_payload(100, 8));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  flip_byte(files[0], 0);  // corrupt "BSEG"
  EXPECT_THROW(SegmentStore reopened(options), util::DecodeError);
}

TEST_F(StoreCorruptionTest, UnknownSegmentVersionRejectedOnOpen) {
  SegmentStoreOptions options;
  options.dir = dir_;
  {
    SegmentStore store(options);
    store.put(random_payload(100, 9));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  flip_byte(files[0], 4);  // version field
  EXPECT_THROW(SegmentStore reopened(options), util::DecodeError);
}

TEST_F(StoreCorruptionTest, StraySegmentLookalikeFileIsSkippedOnOpen) {
  SegmentStoreOptions options;
  options.dir = dir_;
  ChunkKey key;
  {
    SegmentStore store(options);
    key = store.put(random_payload(300, 11));
  }
  // A 14-char name shaped like a segment but with a non-digit id must not
  // reach std::stoull (which would throw std::invalid_argument, an
  // exception no caller expects from the constructor).
  std::ofstream(fs::path(dir_) / "seg-00000a.bsg", std::ios::binary)
      << "not a segment";
  SegmentStore reopened(options);
  EXPECT_EQ(reopened.get(key), random_payload(300, 11));
}

TEST_F(StoreCorruptionTest, GarbageRecordHeaderTreatedAsTornTail) {
  SegmentStoreOptions options;
  options.dir = dir_;
  ChunkKey key;
  {
    SegmentStore store(options);
    key = store.put(random_payload(400, 10));
  }
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  // Append a full record header whose stored-length field is absurd; the
  // scan must stop there instead of allocating gigabytes.
  std::vector<std::uint8_t> junk(kRecordHeaderBytes + 8, 0xFF);
  std::ofstream(files[0], std::ios::binary | std::ios::app)
      .write(reinterpret_cast<const char*>(junk.data()),
             static_cast<std::streamsize>(junk.size()));

  SegmentStore reopened(options);
  EXPECT_EQ(reopened.get(key), random_payload(400, 10));
}

}  // namespace
}  // namespace bees::store
