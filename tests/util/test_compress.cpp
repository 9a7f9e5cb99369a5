#include "util/compress.hpp"

#include "util/byte_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace bees::util {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(LzCompress, EmptyRoundTrip) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(lz_decompress(lz_compress(empty)), empty);
}

TEST(LzCompress, ShortLiteralRoundTrip) {
  const auto data = bytes_of("abc");
  EXPECT_EQ(lz_decompress(lz_compress(data)), data);
}

TEST(LzCompress, RepetitiveInputShrinksALot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 500; ++i) {
    const auto chunk = bytes_of("the quick brown fox ");
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 10);
  EXPECT_EQ(lz_decompress(compressed), data);
}

TEST(LzCompress, RunOfOneByteUsesOverlappingMatches) {
  const std::vector<std::uint8_t> data(10000, 0x42);
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), 100u);
  EXPECT_EQ(lz_decompress(compressed), data);
}

TEST(LzCompress, RandomBytesRoundTripWithBoundedExpansion) {
  Rng rng(3);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto compressed = lz_compress(data);
  EXPECT_EQ(lz_decompress(compressed), data);
  // Incompressible input falls back to stored mode: input + header + mode.
  EXPECT_LE(compressed.size(), data.size() + 16);
}

class LzRandomizedRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LzRandomizedRoundTrip, MixedContentRoundTrips) {
  Rng rng(GetParam());
  // Mixed content: random runs, repeated motifs, random literals.
  std::vector<std::uint8_t> data;
  while (data.size() < 20000) {
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // run
        const auto b = static_cast<std::uint8_t>(rng.next_u64());
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 300));
        data.insert(data.end(), len, b);
        break;
      }
      case 1: {  // motif repetition
        const auto start = data.empty() ? 0 : rng.index(data.size());
        const auto len = static_cast<std::size_t>(rng.uniform_int(4, 64));
        for (std::size_t i = 0; i < len && start + i < data.size(); ++i) {
          data.push_back(data[start + i]);
        }
        break;
      }
      default: {  // literals
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 64));
        for (std::size_t i = 0; i < len; ++i) {
          data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
        break;
      }
    }
  }
  EXPECT_EQ(lz_decompress(lz_compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzRandomizedRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(LzCompress, BadMagicThrows) {
  std::vector<std::uint8_t> junk(32, 0x00);
  EXPECT_THROW(lz_decompress(junk), DecodeError);
}

TEST(LzCompress, TruncatedPayloadThrows) {
  std::vector<std::uint8_t> data(2000, 0x11);
  for (std::size_t i = 0; i < data.size(); i += 3) data[i] = 0x22;
  auto compressed = lz_compress(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(lz_decompress(compressed), DecodeError);
}

TEST(LzCompress, FuzzedDecompressNeverCrashes) {
  // Malformed input must throw DecodeError (or decode by luck), never
  // crash or hang.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(static_cast<std::size_t>(
        rng.uniform_int(0, 200)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    try {
      const auto out = lz_decompress(junk);
      EXPECT_LT(out.size(), 1u << 28);  // sane size if it "succeeded"
    } catch (const DecodeError&) {
      // expected for most inputs
    }
  }
}

TEST(LzCompress, FuzzedMutationsOfValidStreams) {
  Rng rng(101);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  const auto valid = lz_compress(data);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = valid;
    mutated[rng.index(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.index(8));
    try {
      (void)lz_decompress(mutated);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();  // reaching here without crash/hang is the assertion
}

TEST(LzCompress, OversizedDeclaredSizeThrowsBeforeAllocating) {
  // A valid token stream whose header claims 2^62 output bytes: far more
  // than its few bytes of tokens can produce, so the decoder must reject
  // it before reserving the declared size.
  const auto valid = lz_compress(std::vector<std::uint8_t>(10000, 0x42));
  ByteReader r(valid);
  const std::uint32_t magic = r.get_u32();
  r.get_varint();  // the true size
  const std::size_t body_at = valid.size() - r.remaining();  // mode byte on
  ASSERT_EQ(valid[body_at], 1u);  // token mode, not stored
  ByteWriter w;
  w.put_u32(magic);
  w.put_varint(std::uint64_t{1} << 62);
  w.put_bytes(std::span<const std::uint8_t>(valid).subspan(body_at));
  EXPECT_THROW(lz_decompress(w.bytes()), DecodeError);
}

}  // namespace
}  // namespace bees::util
