#include "store/chunk.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash.hpp"

namespace bees::store {

std::size_t ChunkKeyHasher::operator()(const ChunkKey& key) const noexcept {
  // splitmix64-style finalizer over the already-hashed fields.
  std::uint64_t x = key.hash ^ (static_cast<std::uint64_t>(key.crc) << 32) ^
                    key.size;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

Manifest build_manifest(std::span<const std::uint8_t> payload,
                        std::uint32_t chunk_size) {
  if (chunk_size == 0) {
    throw std::invalid_argument("build_manifest: chunk_size must be > 0");
  }
  Manifest manifest;
  manifest.chunk_size = chunk_size;
  manifest.total_bytes = payload.size();
  manifest.content_hash = util::content_hash64(payload);
  manifest.chunks.reserve((payload.size() + chunk_size - 1) / chunk_size);
  for (std::size_t offset = 0; offset < payload.size();
       offset += chunk_size) {
    const std::size_t len = std::min<std::size_t>(chunk_size,
                                                  payload.size() - offset);
    const auto raw = payload.subspan(offset, len);
    manifest.chunks.push_back(ChunkKey{
        .hash = util::content_hash64(raw),
        .crc = util::crc32(raw),
        .size = static_cast<std::uint32_t>(len),
    });
  }
  return manifest;
}

std::span<const std::uint8_t> chunk_bytes(std::span<const std::uint8_t> payload,
                                          const Manifest& manifest,
                                          std::size_t index) {
  const std::size_t offset =
      index * static_cast<std::size_t>(manifest.chunk_size);
  return payload.subspan(offset, manifest.chunks[index].size);
}

void put_manifest(util::ByteWriter& writer, const Manifest& manifest) {
  writer.put_u32(manifest.chunk_size);
  writer.put_varint(manifest.total_bytes);
  writer.put_u64(manifest.content_hash);
  writer.put_varint(manifest.chunks.size());
  for (const ChunkKey& key : manifest.chunks) {
    writer.put_u64(key.hash);
    writer.put_u32(key.crc);
    writer.put_varint(key.size);
  }
}

Manifest get_manifest(util::ByteReader& reader) {
  Manifest manifest;
  manifest.chunk_size = reader.get_u32();
  manifest.total_bytes = reader.get_varint();
  manifest.content_hash = reader.get_u64();
  const std::uint64_t count = reader.get_varint();
  if (count > kMaxManifestChunks) {
    throw util::DecodeError("manifest: chunk count exceeds limit");
  }
  // Every chunk key takes at least 13 bytes (u64 hash, u32 CRC, a size
  // varint of >= 1 byte): a larger count cannot be satisfied by the input
  // and must fail before the reserve below.
  if (count > reader.remaining() / 13) {
    throw util::DecodeError("manifest: chunk count exceeds buffer");
  }
  if (manifest.chunk_size == 0 && count > 0) {
    throw util::DecodeError("manifest: zero chunk_size with chunks");
  }
  const std::uint64_t expected =
      manifest.chunk_size == 0
          ? 0
          : (manifest.total_bytes + manifest.chunk_size - 1) /
                manifest.chunk_size;
  if (count != expected) {
    throw util::DecodeError("manifest: chunk count inconsistent with total");
  }
  manifest.chunks.reserve(count);
  std::uint64_t covered = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkKey key;
    key.hash = reader.get_u64();
    key.crc = reader.get_u32();
    const std::uint64_t size = reader.get_varint();
    const bool last = i + 1 == count;
    const std::uint64_t want =
        last ? manifest.total_bytes - covered : manifest.chunk_size;
    if (size != want || size == 0) {
      throw util::DecodeError("manifest: chunk size inconsistent with total");
    }
    key.size = static_cast<std::uint32_t>(size);
    covered += size;
    manifest.chunks.push_back(key);
  }
  if (covered != manifest.total_bytes) {
    throw util::DecodeError("manifest: chunks do not cover total_bytes");
  }
  return manifest;
}

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest) {
  util::ByteWriter writer;
  put_manifest(writer, manifest);
  return writer.take();
}

Manifest decode_manifest(std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  Manifest manifest = get_manifest(reader);
  if (!reader.done()) {
    throw util::DecodeError("manifest: trailing bytes");
  }
  return manifest;
}

}  // namespace bees::store
