// Stable hashes over byte spans: CRC-32 and a 64-bit content hash.
//
// STABILITY GUARANTEE: both functions here are *persisted formats*, not
// implementation details.  Chunk keys in segment-store files, snapshot
// manifests, and wire-level chunk manifests all embed their outputs, and
// every WAL frame carries a crc32, so a store written today must hash
// identically forever.  Neither function may change output for any input,
// ever; if a better hash is needed it must be added under a new name (and
// a new segment-format version).  Golden-value tests in
// tests/util/test_hash.cpp lock the exact outputs.
//
//   crc32          — CRC-32, IEEE 802.3 reflected polynomial 0xEDB88320,
//                    init/xorout 0xFFFFFFFF (the zlib/PNG variant).
//                    Check value: crc32("123456789") == 0xCBF43926.
//   content_hash64 — FNV-1a, 64-bit: offset basis 0xcbf29ce484222325,
//                    prime 0x100000001b3, one multiply-xor per byte.
//                    Check value: content_hash64("foobar") ==
//                    0x85944171f73967e8.
//
// A chunk is addressed by the triple (content_hash64, crc32, size): the two
// hashes use unrelated mixing structures, so a colliding pair of distinct
// chunks would have to defeat both simultaneously at equal length.  Both are
// byte-order independent (pure byte streams), so keys agree across
// architectures.
#pragma once

#include <cstdint>
#include <span>

namespace bees::util {

/// CRC-32 of `data`, optionally continuing from a previous value (pass the
/// prior return value as `seed` to checksum a stream in pieces).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

/// FNV-1a offset basis: content_hash64 of an empty span.
inline constexpr std::uint64_t kContentHashSeed = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a content hash of `data`.  Chain a stream in pieces by
/// passing the prior return value as `seed`; the result equals hashing the
/// concatenation in one call.
std::uint64_t content_hash64(std::span<const std::uint8_t> data,
                             std::uint64_t seed = kContentHashSeed) noexcept;

}  // namespace bees::util
