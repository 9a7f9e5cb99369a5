// Internal contract between the matching kernel's scan loop and the
// vectorized lane kernels (match_kernel_avx2.cpp / match_kernel_neon.cpp).
// A lane kernel computes, for ONE query descriptor against a run of
// candidates, the four per-lane Hamming sums the early-exit checkpoints
// consume:
//
//   sums[4j + l] = popcount(q.bits[l] ^ b[j].bits[l])      l = 0..3
//
// The candidates are read in place from the caller's descriptor storage: a
// Descriptor256 is four contiguous 64-bit lanes, which is what makes the
// AVX2 path one instruction per step: load the candidate, XOR with the
// query, byte-popcount, and one _mm256_sad_epu8 — whose four 64-bit group
// sums ARE the four lane sums — then store.  The decision scan replays the
// exact scalar checkpoint logic on the buffered sums (d0 = sums[4j],
// d12 = sums[4j+1]+sums[4j+2], d3 = sums[4j+3]), so matches, distances,
// `ops`, and the pruning counters are bit-identical to the fused scalar
// loop — the vector path trades the skipped lane arithmetic for
// branch-free streaming, which is the winning trade on wide cores.
//
// Neither the candidates nor the sums buffer need more than the natural
// alignment of std::uint64_t: kernels use unaligned vector loads and stores
// and handle any n with no tail case (one candidate per step).
#pragma once

#include <cstddef>
#include <cstdint>

#include "features/keypoint.hpp"

namespace bees::feat::detail {

/// 64-bit words per descriptor: one 256-bit descriptor = one AVX2 vector.
inline constexpr std::size_t kLaneBlock = 4;
static_assert(sizeof(Descriptor256) == kLaneBlock * sizeof(std::uint64_t),
              "a descriptor is exactly its four contiguous lanes");

/// One query row worth of per-lane sums: fills sums[4j + l] for every
/// candidate j < n.  `sums` holds kLaneBlock * n words.
using LaneRowFn = void (*)(const Descriptor256& q, const Descriptor256* b,
                           std::size_t n, std::uint64_t* sums);

#if defined(BEES_HAVE_AVX2)
void lane_rows_avx2(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums);
#endif
#if defined(BEES_HAVE_NEON)
void lane_rows_neon(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums);
#endif

/// The active ISA's row kernel, or nullptr when the scalar fused loop
/// should run (scalar forced, or no vector ISA in this build/CPU).
LaneRowFn active_lane_rows();

}  // namespace bees::feat::detail
