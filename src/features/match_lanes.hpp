// Internal contract between the matching kernel (match_kernel.cpp) and its
// vectorized kernels.  There are two kinds:
//
//  * Lane kernels (match_kernel_avx2.cpp / match_kernel_neon.cpp) compute,
//    for ONE query descriptor against a run of candidates, the four
//    per-lane Hamming sums:
//
//      sums[4j + l] = popcount(q.bits[l] ^ b[j].bits[l])      l = 0..3
//
//    The candidates are read in place from the caller's descriptor
//    storage: a Descriptor256 is four contiguous 64-bit lanes, which is
//    what makes the AVX2 path one instruction per step: load the
//    candidate, XOR with the query, byte-popcount, and one _mm256_sad_epu8
//    — whose four 64-bit group sums ARE the four lane sums — then store.
//    The kernel's scalar decision scan adds them up and updates the row and
//    column state in candidate order, so matches, distances and `ops` are
//    bit-identical to the fused scalar loop.  Neither the candidates nor
//    the sums buffer need more than the natural alignment of
//    std::uint64_t: lane kernels use unaligned vector loads and stores and
//    handle any n with no tail case (one candidate per step).
//
//  * Scan kernels (match_kernel_avx512.cpp) run the whole scan, decisions
//    included, kScanStep candidates per step, and fill the forward and
//    reverse match slots directly (ScanSlots).  Once per call they copy
//    the candidates into dword-transposed blocks in ScanSlots::blocks, a
//    scratch buffer the caller sizes; they keep each row's state per lane
//    and reduce it at the end of the row, so they too are bit-identical
//    (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "features/keypoint.hpp"
#include "features/matching.hpp"

namespace bees::feat::detail {

/// 64-bit words per descriptor: one 256-bit descriptor = one AVX2 vector.
inline constexpr std::size_t kLaneBlock = 4;
static_assert(sizeof(Descriptor256) == kLaneBlock * sizeof(std::uint64_t),
              "a descriptor is exactly its four contiguous lanes");

/// Candidates per step of a scan kernel.
inline constexpr std::size_t kScanStep = 16;

/// 32-bit words of a scan kernel's block copy of `nb` candidates: eight
/// per candidate, rounded up to whole steps.
inline constexpr std::size_t scan_block_words(std::size_t nb) noexcept {
  return (nb + kScanStep - 1) / kScanStep * kScanStep * 2 * kLaneBlock;
}

/// The distance and ratio gates one side's nearest neighbour must pass:
/// `best` within max_distance and, unless it had no rival, strictly under
/// ratio * `second`.
inline bool passes_gates(int best, int second,
                         const BinaryMatchParams& params) noexcept {
  return best <= params.max_distance &&
         (second == std::numeric_limits<int>::max() ||
          best < params.ratio * static_cast<double>(second));
}

/// One query row worth of per-lane sums: fills sums[4j + l] for every
/// candidate j < n.  `sums` holds kLaneBlock * n words.
using LaneRowFn = void (*)(const Descriptor256& q, const Descriptor256* b,
                           std::size_t n, std::uint64_t* sums);

/// The match state a scan fills: MatchWorkspace's buffers, sized and
/// initialised by the caller (fwd and col_best_i to npos, col_best and
/// col_second to INT_MAX).  fwd/fwd_dist hold one slot per descriptor of
/// `a`; the col_* slots, one per descriptor of `b`, are touched only when
/// cross-checking.  `blocks` is scratch the scan overwrites.
struct ScanSlots {
  std::size_t* fwd;         ///< Gated nearest index in b; left npos if none.
  int* fwd_dist;            ///< Hamming distance of that match.
  int* col_best;            ///< Per b: best distance over the rows seen.
  int* col_second;          ///< Per b: second-best distance.
  std::size_t* col_best_i;  ///< Per b: first row reaching col_best.
  std::uint32_t* blocks;    ///< scan_block_words(nb) words of block copy.
};

/// A whole scan of `a` (na >= 1) against `b` (nb >= 1): fills `slots`
/// exactly as the scalar loop does.
using ScanFn = void (*)(const Descriptor256* a, std::size_t na,
                        const Descriptor256* b, std::size_t nb,
                        const BinaryMatchParams& params,
                        const ScanSlots& slots);

#if defined(BEES_HAVE_AVX512)
void scan_avx512(const Descriptor256* a, std::size_t na,
                 const Descriptor256* b, std::size_t nb,
                 const BinaryMatchParams& params, const ScanSlots& slots);
#endif
#if defined(BEES_HAVE_AVX2)
void lane_rows_avx2(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums);
#endif
#if defined(BEES_HAVE_NEON)
void lane_rows_neon(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums);
#endif

/// The active ISA's scan kernel, or nullptr when it has none (only
/// AVX-512 does).
ScanFn active_scan();

/// The active ISA's row kernel, or nullptr when a scan kernel or the
/// scalar fused loop runs instead (scalar forced, AVX-512 active, or no
/// vector ISA in this build/CPU).
LaneRowFn active_lane_rows();

}  // namespace bees::feat::detail
