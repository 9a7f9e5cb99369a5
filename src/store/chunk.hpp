// Content-addressed chunk keys and payload manifests.
//
// A payload (an encoded image, a snapshot blob) is split into fixed-size
// chunks; each chunk is addressed by the triple (content_hash64, crc32, raw
// size).  A Manifest records the chunking interval, the total length, a
// whole-payload content hash, and the ordered chunk keys — enough to
// reassemble the payload from any store holding the chunks, and to tell a
// receiver exactly which chunks it is missing.
//
// Manifests are persisted (snapshot manifests) and sent on the wire
// (kChunkManifest / kChunkCommit), so the encoding below and the hash
// functions it embeds are frozen formats — see util/hash.hpp for the
// stability guarantee and DESIGN.md §12 for the layout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/byte_io.hpp"

namespace bees::store {

/// Address of one chunk: content hash + CRC + raw (uncompressed) length.
/// Two chunks with equal keys are treated as byte-identical everywhere
/// (dedup on disk and on the wire).
struct ChunkKey {
  std::uint64_t hash = 0;  ///< util::content_hash64 of the raw chunk bytes.
  std::uint32_t crc = 0;   ///< util::crc32 of the raw chunk bytes.
  std::uint32_t size = 0;  ///< Raw byte count (<= the manifest chunk_size).

  bool operator==(const ChunkKey&) const = default;
};

/// Hash functor for unordered containers keyed by ChunkKey.
struct ChunkKeyHasher {
  std::size_t operator()(const ChunkKey& key) const noexcept;
};

/// Ordered chunk addresses describing one payload.
struct Manifest {
  std::uint32_t chunk_size = 0;    ///< Chunking interval used to split.
  std::uint64_t total_bytes = 0;   ///< Payload length; last chunk may be short.
  std::uint64_t content_hash = 0;  ///< content_hash64 of the whole payload.
  std::vector<ChunkKey> chunks;

  bool operator==(const Manifest&) const = default;
};

/// Hard cap on a manifest's chunk count accepted by the decoder; guards
/// against allocating on a corrupt length field.
inline constexpr std::uint64_t kMaxManifestChunks = 1u << 22;

/// Splits `payload` at `chunk_size` boundaries and hashes every chunk.
/// Deterministic: equal (payload, chunk_size) always yields byte-identical
/// manifests.  chunk_size must be > 0.  An empty payload has zero chunks.
Manifest build_manifest(std::span<const std::uint8_t> payload,
                        std::uint32_t chunk_size);

/// The raw bytes of chunk `index` of `payload` under `manifest`'s interval.
std::span<const std::uint8_t> chunk_bytes(std::span<const std::uint8_t> payload,
                                          const Manifest& manifest,
                                          std::size_t index);

/// Appends the frozen manifest encoding (see DESIGN.md §12).
void put_manifest(util::ByteWriter& writer, const Manifest& manifest);
/// Decodes one manifest, validating chunk count and per-chunk sizes against
/// chunk_size/total_bytes.  Throws util::DecodeError on any inconsistency.
Manifest get_manifest(util::ByteReader& reader);

std::vector<std::uint8_t> encode_manifest(const Manifest& manifest);
Manifest decode_manifest(std::span<const std::uint8_t> bytes);

}  // namespace bees::store
