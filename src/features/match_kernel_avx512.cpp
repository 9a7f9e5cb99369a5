// AVX-512 scan kernel (F + VPOPCNTDQ): the whole scan, decisions included,
// 16 candidates per step — one per int32 lane of a 512-bit vector.
//
//  * Block copy: once per call, `b` is copied into dword-transposed blocks
//    of 16 candidates (ScanSlots::blocks): word k of candidate 16s + l sits
//    at blocks[128s + 16k + l].  The last block's missing lanes keep
//    whatever the buffer held; their distances are masked off.
//  * Distances: a step XORs a block's eight word vectors with the query's
//    broadcast words, popcounts them with vpopcntd and adds them up, which
//    leaves candidate 16s + l's distance in lane l with no cross-lane
//    shuffle.  Missing lanes get distance INT_MAX.
//  * Row state per lane: lane l keeps the best and second-best distance of
//    its own candidates (l, l + 16, ...) and the first index reaching its
//    best.  The 16 lanes are reduced once at the end of the row.
//  * Column state: each lane owns one candidate, so the reverse best,
//    second and winner update with masked min/max blends and stores.
//
// The scalar loop's early exit skips only pairs that can change nothing,
// so taking every pair in full gives its matches, distances, first-index
// tie order and `ops` bit for bit (DESIGN.md §13).  This translation unit
// is the only one compiled with -mavx512f -mavx512vpopcntdq, and it is
// entered only after the runtime probe (features/simd.cpp) confirmed both.
#if defined(BEES_HAVE_AVX512)

#include <immintrin.h>

#include <limits>

#include "features/match_lanes.hpp"

namespace bees::feat::detail {

namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::size_t kWords = 2 * kLaneBlock;  // 32-bit words per descriptor
constexpr std::size_t kBlockWords = kScanStep * kWords;
constexpr __mmask16 kAllLanes = 0xFFFF;

// gcc 12 implements the unmasked forms of several AVX-512 intrinsics with
// an "undefined" pass-through vector and then warns that it may be used
// uninitialized.  The zero-masked forms with every lane selected compile
// to the same instructions without it.
inline __m512i vmin(__m512i a, __m512i b) noexcept {
  return _mm512_maskz_min_epi32(kAllLanes, a, b);
}
inline __m512i vmax(__m512i a, __m512i b) noexcept {
  return _mm512_maskz_max_epi32(kAllLanes, a, b);
}

/// Word k of descriptor d, in the order the blocks store them.
inline std::uint32_t word(const Descriptor256& d, std::size_t k) noexcept {
  return static_cast<std::uint32_t>(d.bits[k / 2] >> (32 * (k % 2)));
}

/// Copies b[0..nb) into ScanSlots::blocks (see the file comment).
void copy_blocks(const Descriptor256* b, std::size_t nb,
                 std::uint32_t* blocks) noexcept {
  for (std::size_t j = 0; j < nb; ++j) {
    std::uint32_t* dst = blocks + j / kScanStep * kBlockWords + j % kScanStep;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kWords; ++k) dst[kScanStep * k] = word(b[j], k);
  }
}

/// Per-row state, one candidate class per lane: lane l covers candidates
/// j = l (mod 16).
struct Row {
  __m512i best;
  __m512i second;
  __m512i best_j;  ///< First index reaching `best`; undefined while INT_MAX.
};

/// One step of row `i` over the block at `block` (columns j0..j0+15, of
/// which the lanes in `valid` exist).  `j` holds j0 + l in lane l.
template <bool Cross>
inline void step(const __m512i (&q)[kWords], const std::uint32_t* block,
                 std::size_t j0, __m512i j, __mmask16 valid, std::size_t i,
                 Row& row, const ScanSlots& slots) noexcept {
  __m512i d = _mm512_popcnt_epi32(
      _mm512_xor_si512(_mm512_loadu_si512(block), q[0]));
#pragma GCC unroll 8
  for (std::size_t k = 1; k < kWords; ++k) {
    const __m512i x = _mm512_xor_si512(
        _mm512_loadu_si512(block + kScanStep * k), q[k]);
    d = _mm512_add_epi32(d, _mm512_popcnt_epi32(x));
  }
  // Missing lanes get an infinite distance, so they update nothing.
  d = _mm512_mask_mov_epi32(_mm512_set1_epi32(kIntMax), valid, d);

  // Strict improvement keeps each lane's first index at its best; the
  // second-best is the sorted-pair merge min(second, max(d, best)).
  const __mmask16 improves = _mm512_cmplt_epi32_mask(d, row.best);
  row.second = vmin(row.second, vmax(d, row.best));
  row.best = vmin(row.best, d);
  row.best_j = _mm512_mask_mov_epi32(row.best_j, improves, j);

  if constexpr (Cross) {
    const __m512i col_best =
        _mm512_maskz_loadu_epi32(valid, slots.col_best + j0);
    const __m512i col_second =
        _mm512_maskz_loadu_epi32(valid, slots.col_second + j0);
    // d < col_best: a new winner, the old best drops to second.  Else
    // d < col_second: a new second.  Both as min/max of sorted pairs.
    const __mmask16 wins = _mm512_cmplt_epi32_mask(d, col_best);
    _mm512_mask_storeu_epi32(slots.col_second + j0, valid,
                             vmin(vmax(d, col_best), col_second));
    _mm512_mask_storeu_epi32(slots.col_best + j0, valid, vmin(d, col_best));
    if (wins != 0) {
      const __m512i row_i = _mm512_set1_epi64(static_cast<long long>(i));
      _mm512_mask_storeu_epi64(slots.col_best_i + j0,
                               static_cast<__mmask8>(wins), row_i);
      // Only form the upper half's address when it holds a column.
      if (wins > 0xFF) {
        _mm512_mask_storeu_epi64(slots.col_best_i + j0 + 8,
                                 static_cast<__mmask8>(wins >> 8), row_i);
      }
    }
  }
}

/// Every lane of the result holds the minimum of x's 16 lanes.
inline __m512i hmin(__m512i x) noexcept {
  x = vmin(x, _mm512_maskz_shuffle_i64x2(0xFF, x, x, 0x4E));
  x = vmin(x, _mm512_maskz_shuffle_i64x2(0xFF, x, x, 0xB1));
  x = vmin(x, _mm512_maskz_shuffle_epi32(kAllLanes, x, _MM_PERM_BADC));
  return vmin(x, _mm512_maskz_shuffle_epi32(kAllLanes, x, _MM_PERM_CDAB));
}

template <bool Cross>
void scan(const Descriptor256* a, std::size_t na, const Descriptor256* b,
          std::size_t nb, const BinaryMatchParams& params,
          const ScanSlots& in) {
  // A local copy: the kernel's vector stores may alias anything, so the
  // pointers would otherwise be reloaded from `in` after every store.
  const ScanSlots slots = in;
  copy_blocks(b, nb, slots.blocks);
  const std::size_t full = nb / kScanStep * kScanStep;
  const auto rest_valid =
      static_cast<__mmask16>((1u << (nb - full)) - 1u);
  const __m512i inf = _mm512_set1_epi32(kIntMax);
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7,  //
                                          8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i step_j = _mm512_set1_epi32(static_cast<int>(kScanStep));

  for (std::size_t i = 0; i < na; ++i) {
    __m512i q[kWords];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kWords; ++k) {
      q[k] = _mm512_set1_epi32(static_cast<int>(word(a[i], k)));
    }
    Row row{inf, inf, _mm512_setzero_si512()};
    __m512i j = lanes;
    const std::uint32_t* block = slots.blocks;
    for (std::size_t j0 = 0; j0 < full; j0 += kScanStep) {
      step<Cross>(q, block, j0, j, kAllLanes, i, row, slots);
      block += kBlockWords;
      j = _mm512_add_epi32(j, step_j);
    }
    if (rest_valid != 0) {
      step<Cross>(q, block, full, j, rest_valid, i, row, slots);
    }

    // Row reduction.  best is the minimum of the lane bests, and best_j the
    // first index among the lanes holding it.  second is the second
    // smallest of the lane bests (best again when two lanes hold it) or the
    // smallest lane second, whichever is lower: the first lane at best
    // offers its second, every other lane its best.
    const __m512i best = hmin(row.best);
    const __mmask16 at_best = _mm512_cmpeq_epi32_mask(row.best, best);
    const auto first = static_cast<__mmask16>(at_best & -at_best);
    const int second = _mm512_cvtsi512_si32(
        hmin(_mm512_mask_mov_epi32(row.best, first, row.second)));
    const int row_best = _mm512_cvtsi512_si32(best);
    if (passes_gates(row_best, second, params)) {
      slots.fwd[i] = static_cast<std::uint32_t>(_mm512_cvtsi512_si32(
          hmin(_mm512_mask_mov_epi32(inf, at_best, row.best_j))));
      slots.fwd_dist[i] = row_best;
    }
  }
}

}  // namespace

void scan_avx512(const Descriptor256* a, std::size_t na,
                 const Descriptor256* b, std::size_t nb,
                 const BinaryMatchParams& params, const ScanSlots& slots) {
  if (params.cross_check) {
    scan<true>(a, na, b, nb, params, slots);
  } else {
    scan<false>(a, na, b, nb, params, slots);
  }
}

}  // namespace bees::feat::detail

#endif  // BEES_HAVE_AVX512
