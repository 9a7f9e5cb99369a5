// Allocation bounds of the binary decoders: a decoder may size a buffer
// only from a count it has checked against the bytes it was given, so a
// corrupt or hostile input of a few bytes fails with util::DecodeError (or,
// behind cloud::dispatch, an encoded error reply) before it allocates more
// than a small multiple of its own size.
//
// This binary replaces the global operator new to record the largest
// single request made while a probe is armed; it is its own test binary so
// the replacement reaches no other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "net/protocol.hpp"
#include "store/chunk.hpp"
#include "store/segment_store.hpp"
#include "util/byte_io.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_largest{0};

/// Requests above this fail while armed instead of reserving address
/// space: the unbounded decoders this suite guards against asked for up to
/// 8 GiB from inputs under 100 bytes.
constexpr std::size_t kRefuseBytes = std::size_t{256} << 20;

}  // namespace

void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
    if (size > kRefuseBytes) throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the free() below with the operator new it sees inlined at a
// call site and calls it mismatched; in the replacement functions
// themselves, malloc and free are the matching pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bees {
namespace {

/// Largest allocation a decode of `input_bytes` may make: a small multiple
/// of the input plus a fixed allowance for error messages and replies.
std::size_t allocation_bound(std::size_t input_bytes) {
  return 4 * input_bytes + 256;
}

struct Probe {
  bool decode_error = false;
  std::size_t largest = 0;
};

/// Runs `decode` with the allocation probe armed.  A util::DecodeError is
/// recorded; any other exception (std::bad_alloc above all) propagates and
/// fails the test.
template <typename Fn>
Probe probe(Fn&& decode) {
  Probe result;
  g_largest.store(0);
  g_armed.store(true);
  try {
    decode();
  } catch (const util::DecodeError&) {
    result.decode_error = true;
  } catch (...) {
    g_armed.store(false);
    throw;
  }
  g_armed.store(false);
  result.largest = g_largest.load();
  return result;
}

/// A kChunkManifest payload of 20 bytes: chunk_size 1, total_bytes and
/// chunk count 2^22 — the format's cap — and no chunk keys at all.
std::vector<std::uint8_t> manifest_claiming_max_chunks() {
  util::ByteWriter w;
  w.put_u32(1);                // chunk_size
  w.put_varint(1u << 22);      // total_bytes
  w.put_u64(0);                // content hash
  w.put_varint(1u << 22);      // chunk count
  return w.take();
}

TEST(DecodeBounds, ManifestChunkCountIsBoundedByInput) {
  const std::vector<std::uint8_t> payload = manifest_claiming_max_chunks();
  ASSERT_EQ(payload.size(), 20u);
  const Probe p = probe([&] { net::decode_chunk_manifest(payload); });
  EXPECT_TRUE(p.decode_error);
  EXPECT_LE(p.largest, allocation_bound(payload.size()));
}

TEST(DecodeBounds, ManifestAckMissingCountIsBoundedByInput) {
  util::ByteWriter w;
  w.put_varint(1u << 22);  // missing-chunk count, no indices follow
  const std::vector<std::uint8_t> payload = w.take();
  ASSERT_EQ(payload.size(), 4u);
  const Probe p = probe([&] { net::decode_chunk_manifest_ack(payload); });
  EXPECT_TRUE(p.decode_error);
  EXPECT_LE(p.largest, allocation_bound(payload.size()));
}

TEST(DecodeBounds, PayloadOfAbsentChunksIsNotSizedFirst) {
  // A well-formed manifest naming four 2^31-byte chunks the store has never
  // seen: total_bytes is 8 GiB, and nothing backs it.
  store::Manifest manifest;
  manifest.chunk_size = 1u << 31;
  manifest.total_bytes = std::uint64_t{1} << 33;
  for (std::uint64_t i = 0; i < 4; ++i) {
    manifest.chunks.push_back({.hash = 0x5eed + i, .crc = 7, .size = 1u << 31});
  }
  const std::vector<std::uint8_t> bytes = store::encode_manifest(manifest);
  ASSERT_EQ(bytes.size(), 86u);
  store::SegmentStore segment_store{store::SegmentStoreOptions{}};
  const Probe p = probe(
      [&] { segment_store.get_payload(store::decode_manifest(bytes)); });
  EXPECT_TRUE(p.decode_error);
  EXPECT_LE(p.largest, allocation_bound(bytes.size()));
}

TEST(DecodeBounds, DispatchedManifestGetsAnErrorReply) {
  // The same 20 bytes from a client, as a kChunkManifest envelope, to a
  // server whose chunk plane is on.
  const std::vector<std::uint8_t> payload = manifest_claiming_max_chunks();
  util::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(net::MessageType::kChunkManifest));
  w.put_varint(payload.size());
  w.put_bytes(payload);
  const std::vector<std::uint8_t> request = w.take();

  store::SegmentStore segment_store{store::SegmentStoreOptions{}};
  cloud::Server server;
  server.attach_chunk_store(&segment_store);
  std::vector<std::uint8_t> reply;
  const Probe p = probe([&] { reply = cloud::dispatch(server, request); });
  EXPECT_FALSE(p.decode_error);  // dispatch never throws request errors
  EXPECT_EQ(net::open_envelope(reply).type, net::MessageType::kError);
  EXPECT_LE(p.largest, allocation_bound(request.size()));
}

}  // namespace
}  // namespace bees
