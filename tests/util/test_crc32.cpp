#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bees::util {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32, SeedChainingMatchesOneShot) {
  const auto a = bytes_of("write-ahead ");
  const auto b = bytes_of("log record");
  auto joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  EXPECT_EQ(crc32(b, crc32(a)), crc32(joined));
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = bytes_of("the payload under guard");
  const std::uint32_t clean = crc32(data);
  data[5] ^= 0x10;
  EXPECT_NE(crc32(data), clean);
}

TEST(Crc32, DetectsTruncation) {
  const auto data = bytes_of("truncated frames must not verify");
  const std::vector<std::uint8_t> prefix(data.begin(), data.end() - 1);
  EXPECT_NE(crc32(prefix), crc32(data));
}

}  // namespace
}  // namespace bees::util
