#include "serve/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "index/serialize.hpp"
#include "obs/metrics.hpp"
#include "serve/shard.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"

namespace bees::serve {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

WalRecord make_record(std::uint64_t seq, WalOp op, std::uint32_t gid) {
  WalRecord record;
  record.seq = seq;
  record.op = op;
  record.global_id = gid;
  record.info.image_bytes = 2'000'000.0 + static_cast<double>(seq);
  record.info.geo = {2.31 + 0.01 * static_cast<double>(seq), 48.86, true};
  record.info.thumbnail_bytes = 12'000.0;
  record.payload = {static_cast<std::uint8_t>(seq), 0xAB, 0xCD,
                    static_cast<std::uint8_t>(gid)};
  return record;
}

std::vector<WalRecord> write_log(const std::string& path, int records) {
  std::remove(path.c_str());
  std::vector<WalRecord> written;
  WriteAheadLog wal(path);
  for (int i = 0; i < records; ++i) {
    written.push_back(make_record(static_cast<std::uint64_t>(i + 1),
                                  i % 2 == 0 ? WalOp::kStoreBinary
                                             : WalOp::kSeedFloat,
                                  static_cast<std::uint32_t>(i)));
    wal.append(written.back());
  }
  return written;
}

void expect_equal(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.global_id, b.global_id);
  EXPECT_DOUBLE_EQ(a.info.image_bytes, b.info.image_bytes);
  EXPECT_EQ(a.info.geo.valid, b.info.geo.valid);
  EXPECT_DOUBLE_EQ(a.info.geo.lon, b.info.geo.lon);
  EXPECT_DOUBLE_EQ(a.info.geo.lat, b.info.geo.lat);
  EXPECT_DOUBLE_EQ(a.info.thumbnail_bytes, b.info.thumbnail_bytes);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(WalRecord, RoundTripPreservesAllFields) {
  const WalRecord original = make_record(42, WalOp::kStoreFloat, 7);
  expect_equal(decode_wal_record(encode_wal_record(original)), original);
}

TEST(WalRecord, InvalidGeoRoundTrips) {
  WalRecord original = make_record(1, WalOp::kStorePlain, 0);
  original.info.geo = {};
  const WalRecord decoded = decode_wal_record(encode_wal_record(original));
  EXPECT_FALSE(decoded.info.geo.valid);
}

TEST(WalRecord, UnknownOpThrows) {
  auto bytes = encode_wal_record(make_record(1, WalOp::kStoreBinary, 0));
  bytes[8] = 0;  // op byte follows the fixed 8-byte seq
  EXPECT_THROW(decode_wal_record(bytes), util::DecodeError);
  bytes[8] = 200;
  EXPECT_THROW(decode_wal_record(bytes), util::DecodeError);
}

TEST(WalRecord, TrailingBytesThrow) {
  auto bytes = encode_wal_record(make_record(1, WalOp::kStoreBinary, 0));
  bytes.push_back(0);
  EXPECT_THROW(decode_wal_record(bytes), util::DecodeError);
}

TEST(WalReplay, ReplaysRecordsInWriteOrder) {
  const std::string path = temp_path("bees_wal_order.log");
  const auto written = write_log(path, 5);

  std::vector<WalRecord> replayed;
  const WalReplayResult result =
      replay_wal(path, 0, [&](const WalRecord& r) { replayed.push_back(r); });
  std::remove(path.c_str());

  EXPECT_EQ(result.applied, 5u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_EQ(result.dropped, 0u);
  ASSERT_EQ(replayed.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    expect_equal(replayed[i], written[i]);
  }
}

TEST(WalReplay, SkipsRecordsCoveredBySnapshot) {
  const std::string path = temp_path("bees_wal_skip.log");
  write_log(path, 5);

  std::vector<std::uint64_t> seqs;
  const WalReplayResult result = replay_wal(
      path, 3, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  std::remove(path.c_str());

  EXPECT_EQ(result.applied, 2u);
  EXPECT_EQ(result.skipped, 3u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{4, 5}));
}

TEST(WalReplay, MissingFileReplaysNothing) {
  const WalReplayResult result = replay_wal(
      temp_path("bees_wal_never_written.log"), 0,
      [](const WalRecord&) { FAIL() << "nothing should replay"; });
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.dropped, 0u);
}

TEST(WalReplay, TruncatedTailRecoversIntactPrefix) {
  const std::string path = temp_path("bees_wal_trunc.log");
  write_log(path, 4);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);  // tear the last frame

  std::size_t applied = 0;
  const WalReplayResult result =
      replay_wal(path, 0, [&](const WalRecord&) { ++applied; });
  std::remove(path.c_str());

  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(result.applied, 3u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_GT(result.dropped_bytes, 0u);
  EXPECT_EQ(result.valid_bytes + result.dropped_bytes,
            static_cast<std::size_t>(full - 3));
}

TEST(WalReplay, BadCrcStopsAtLastIntactRecord) {
  const std::string path = temp_path("bees_wal_crc.log");
  write_log(path, 4);
  {
    // Flip a payload bit in the final frame; its CRC no longer matches.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char last;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x01));
  }

  std::size_t applied = 0;
  const WalReplayResult result =
      replay_wal(path, 0, [&](const WalRecord&) { ++applied; });
  std::remove(path.c_str());

  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(result.dropped, 1u);
}

TEST(WalReplay, GarbageTailStopsClean) {
  const std::string path = temp_path("bees_wal_garbage.log");
  write_log(path, 3);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::vector<std::uint8_t> junk{0xDE, 0xAD, 0xBE, 0xEF, 0x00,
                                         0x11, 0x22, 0x33, 0x44, 0x55};
    f.write(reinterpret_cast<const char*>(junk.data()),
            static_cast<std::streamsize>(junk.size()));
  }

  std::size_t applied = 0;
  const WalReplayResult result =
      replay_wal(path, 0, [&](const WalRecord&) { ++applied; });
  std::remove(path.c_str());

  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(result.dropped_bytes, 10u);
}

TEST(WalReplay, ZeroFilledTailStopsClean) {
  // A crash can leave a log extended by zeroed blocks.  A zero header
  // claims an empty body whose CRC (0) matches, so only the body's decode
  // tells it from a record: the tail is torn, not refused.
  const std::string path = temp_path("bees_wal_zeros.log");
  write_log(path, 3);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::vector<char> zeros(64, 0);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }

  std::size_t applied = 0;
  const WalReplayResult result =
      replay_wal(path, 0, [&](const WalRecord&) { ++applied; });
  std::remove(path.c_str());

  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(result.dropped_bytes, 64u);
}

TEST(WalReplay, DroppedRecordsAreCounted) {
  const std::string path = temp_path("bees_wal_metric.log");
  write_log(path, 2);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 2);

  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  replay_wal(path, 0, [](const WalRecord&) {});
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  obs::set_enabled(false);
  std::remove(path.c_str());

  ASSERT_TRUE(snapshot.counters.count("serve.wal.dropped_records"));
  EXPECT_DOUBLE_EQ(snapshot.counters.at("serve.wal.dropped_records"), 1.0);
  ASSERT_TRUE(snapshot.counters.count("serve.wal.dropped_bytes"));
  EXPECT_GT(snapshot.counters.at("serve.wal.dropped_bytes"), 0.0);
}

TEST(WalReplay, ResetTruncatesTheLog) {
  const std::string path = temp_path("bees_wal_reset.log");
  std::remove(path.c_str());
  {
    WriteAheadLog wal(path);
    wal.append(make_record(1, WalOp::kStoreBinary, 0));
    wal.reset();
    wal.append(make_record(2, WalOp::kSeedGlobal, 0));
  }

  std::vector<std::uint64_t> seqs;
  replay_wal(path, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  std::remove(path.c_str());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2}));
}

TEST(WalCodec, HistogramRoundTrips) {
  // Global-op payloads are the shared idx::put_histogram codec.
  feat::ColorHistogram h;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    h.bins[i] = static_cast<float>(i) * 0.25f;
  }
  util::ByteWriter w;
  idx::put_histogram(w, h);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(bytes.size(), feat::ColorHistogram::kBins * 4u);
  util::ByteReader r(bytes);
  EXPECT_EQ(idx::get_histogram(r).bins, h.bins);
  EXPECT_TRUE(r.done());
  util::ByteReader truncated(
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 1));
  EXPECT_THROW(idx::get_histogram(truncated), util::DecodeError);
  // A global record whose payload runs past its histogram is corrupt.
  WalRecord record;
  record.op = WalOp::kStoreGlobal;
  record.payload = bytes;
  record.payload.push_back(0);
  EXPECT_THROW(Shard(0, ShardOptions{}).apply(record), util::DecodeError);
}

}  // namespace
}  // namespace bees::serve
