#include "util/compress.hpp"

#include <algorithm>
#include <array>

#include "util/bitstream.hpp"
#include "util/byte_io.hpp"

namespace bees::util {

namespace {

constexpr std::size_t kWindow = 64 * 1024;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1024;
constexpr std::size_t kHashSize = 1 << 15;
constexpr std::uint32_t kMagic = 0x5a4c4245;  // "EBLZ"

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  v = static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
      (static_cast<std::uint32_t>(p[2]) << 16) |
      (static_cast<std::uint32_t>(p[3]) << 24);
  return (v * 2654435761u) >> (32 - 15);
}

}  // namespace

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> data) {
  ByteWriter header;
  header.put_u32(kMagic);
  header.put_varint(data.size());

  BitWriter bw;
  // Hash chains: head per bucket, previous-occurrence link per position.
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(data.size(), -1);

  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= data.size()) {
      const std::uint32_t h = hash4(data.data() + pos);
      std::int64_t candidate = head[h];
      int probes = 16;  // bounded search keeps compression O(n)
      while (candidate >= 0 && probes-- > 0 &&
             pos - static_cast<std::size_t>(candidate) <= kWindow) {
        const auto cand = static_cast<std::size_t>(candidate);
        std::size_t len = 0;
        const std::size_t max_len =
            std::min(kMaxMatch, data.size() - pos);
        while (len < max_len && data[cand + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - cand;
        }
        candidate = prev[cand];
      }
    }

    if (best_len >= kMinMatch) {
      // Match token: flag 1, length offset, distance.
      bw.put_bit(true);
      bw.put_ue(best_len - kMinMatch);
      bw.put_ue(best_dist - 1);
      // Insert the covered positions into the chains.
      const std::size_t end = std::min(pos + best_len, data.size() - 3);
      for (std::size_t i = pos; i < end; ++i) {
        const std::uint32_t h = hash4(data.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      pos += best_len;
    } else {
      // Literal token: flag 0, raw byte.
      bw.put_bit(false);
      bw.put_bits(data[pos], 8);
      if (pos + 4 <= data.size()) {
        const std::uint32_t h = hash4(data.data() + pos);
        prev[pos] = head[h];
        head[h] = static_cast<std::int64_t>(pos);
      }
      ++pos;
    }
  }

  std::vector<std::uint8_t> out = header.take();
  const std::vector<std::uint8_t> payload = bw.finish();
  if (payload.size() >= data.size()) {
    // Stored mode: incompressible input is carried verbatim, so the output
    // never exceeds input + header + 1.
    out.push_back(0);  // mode: stored
    out.insert(out.end(), data.begin(), data.end());
  } else {
    out.push_back(1);  // mode: LZ tokens
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

std::vector<std::uint8_t> lz_decompress(
    const std::vector<std::uint8_t>& compressed) {
  ByteReader hr(compressed);
  if (hr.get_u32() != kMagic) throw DecodeError("lz: bad magic");
  const auto size = static_cast<std::size_t>(hr.get_varint());
  const std::uint8_t mode = hr.get_u8();
  const std::size_t header_bytes = compressed.size() - hr.remaining();
  if (mode == 0) {
    if (hr.remaining() < size) throw DecodeError("lz: truncated stored data");
    ByteReader body(compressed);
    // Skip the header again through the byte API.
    body.get_u32();
    body.get_varint();
    body.get_u8();
    return body.get_bytes(size);
  }
  if (mode != 1) throw DecodeError("lz: bad mode");
  // Every token takes at least 3 bits and yields at most kMaxMatch bytes,
  // so a larger declared size is corrupt; rejecting it before the reserve
  // bounds the allocation by the input size.
  if (size / kMaxMatch > hr.remaining() * 8 / 3) {
    throw DecodeError("lz: declared size exceeds payload");
  }

  std::vector<std::uint8_t> out;
  out.reserve(size);
  BitReader br(compressed, header_bytes);
  while (out.size() < size) {
    if (br.get_bit()) {
      const std::size_t len =
          static_cast<std::size_t>(br.get_ue()) + kMinMatch;
      const std::size_t dist = static_cast<std::size_t>(br.get_ue()) + 1;
      if (len > kMaxMatch || dist > out.size()) {
        throw DecodeError("lz: bad match token");
      }
      // Byte-by-byte copy supports overlapping matches (RLE-style).
      const std::size_t start = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(out[start + i]);
      }
    } else {
      out.push_back(static_cast<std::uint8_t>(br.get_bits(8)));
    }
  }
  if (out.size() != size) throw DecodeError("lz: size mismatch");
  return out;
}

}  // namespace bees::util
