// AVX-512 scan kernel (F + VPOPCNTDQ): the whole scan, decisions included,
// 16 candidates per step — one per int32 lane of a 512-bit vector.
//
//  * Distances: two candidate descriptors per zmm, XORed with the query
//    (held twice, once per 256-bit half) and popcounted with vpopcntq,
//    which leaves the 64 per-lane counts of the step in eight vectors of
//    64-bit slots.  Three rounds of permutes transpose them into four
//    16-lane int32 vectors (lane l of every candidate), from which the
//    checkpoint sums d0, d012 and d follow by vector adds.
//  * Row state: the scalar loop prunes candidate j against the row's
//    second-best *as it stood before j*.  That is an exclusive prefix of
//    the running (best, second) pair over the step's lanes: four valignd
//    shift-and-merge rounds give every lane the two smallest distances of
//    the lanes before it, and one merge folds in the pair carried from
//    earlier steps.  The early-exit flags therefore replay the scalar loop
//    lane for lane, and so do the matches, distances, first-index tie
//    order, `ops` and feat.match.lanes_{examined,pruned} (DESIGN.md §13).
//  * Column state: each lane owns one candidate, so the reverse best,
//    second and winner update with masked min/max blends and stores.
//
// The tail of a candidate run is copied once per call into a zero-padded
// block, so every step loads 16 whole descriptors; column slots past the
// end are masked off.  This translation unit is the only one compiled with
// -mavx512f -mavx512vpopcntdq, and it is entered only after the runtime
// probe (features/simd.cpp) confirmed both.
#if defined(BEES_HAVE_AVX512)

#include <immintrin.h>

#include <bit>
#include <cstring>
#include <limits>

#include "features/match_lanes.hpp"

namespace bees::feat::detail {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::size_t kStep = 16;
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

/// Lane k of the result is lane k - Shift of x; the low Shift lanes are
/// `fill`.
template <int Shift>
inline __m512i shift_up(__m512i x, __m512i fill) noexcept {
  constexpr auto kKeep = static_cast<__mmask16>(kAllLanes << Shift);
  return _mm512_mask_alignr_epi32(fill, kKeep, x, x, 16 - Shift);
}

/// One shift-and-merge round of the prefix scan: lane k merges its
/// (best, second) pair with lane k - Shift's.  The two smallest of two
/// sorted pairs are min(b1, b2) and min(max(b1, b2), s1, s2).
template <int Shift>
inline void merge_round(__m512i& best, __m512i& second,
                        __m512i inf) noexcept {
  const __m512i best_in = shift_up<Shift>(best, inf);
  const __m512i second_in = shift_up<Shift>(second, inf);
  second = vmin(vmax(best, best_in), vmin(second, second_in));
  best = vmin(best, best_in);
}

/// Loop-invariant vectors of one scan call.
struct Consts {
  __m512i inf = _mm512_set1_epi32(kIntMax);
  __m512i last_lane = _mm512_set1_epi32(15);
  /// Transpose round 1: two pair vectors (slots 2l and 8 + 2l hold lane l
  /// of their two candidates) -> [lane 0 of 4 candidates, lane 1, ...].
  __m512i quads = _mm512_setr_epi32(0, 8, 16, 24, 2, 10, 18, 26,  //
                                    4, 12, 20, 28, 6, 14, 22, 30);
  /// Transpose round 2: two quad vectors -> lanes 0-1 (lo) or 2-3 (hi)
  /// of 8 candidates, 4 candidates per 128-bit block.
  __m512i octs_lo = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19,  //
                                      4, 5, 6, 7, 20, 21, 22, 23);
  __m512i octs_hi = _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27,  //
                                      12, 13, 14, 15, 28, 29, 30, 31);
};

/// Per-row state carried across steps: the running best and second-best
/// distances (in every lane) and the first index reaching `best`.
struct Row {
  __m512i best;
  __m512i second;
  std::size_t best_j;
};

/// Checkpoint sums of one step: d0 = lane 0, d012 = lanes 0-2, d = all.
struct StepSums {
  __m512i d0;
  __m512i d012;
  __m512i d;
};

/// The Hamming checkpoint sums of the query `q2` (the descriptor in both
/// 256-bit halves) against the 16 candidates at `cand`.
inline StepSums step_sums(__m512i q2, const Descriptor256* cand,
                          const Consts& k) noexcept {
  __m512i counts[8];
  for (int m = 0; m < 8; ++m) {
    const __m512i pair = _mm512_loadu_si512(cand + 2 * m);
    counts[m] = _mm512_popcnt_epi64(_mm512_xor_si512(pair, q2));
  }
  // Each count sits in the low half of its 64-bit slot, so the vectors
  // are transposed as int32 lanes: pairs -> quads -> octets -> lanes.
  __m512i quads[4];
  for (int p = 0; p < 4; ++p) {
    quads[p] = _mm512_permutex2var_epi32(counts[2 * p], k.quads,
                                         counts[2 * p + 1]);
  }
  const __m512i lo_a =
      _mm512_permutex2var_epi32(quads[0], k.octs_lo, quads[1]);
  const __m512i hi_a =
      _mm512_permutex2var_epi32(quads[0], k.octs_hi, quads[1]);
  const __m512i lo_b =
      _mm512_permutex2var_epi32(quads[2], k.octs_lo, quads[3]);
  const __m512i hi_b =
      _mm512_permutex2var_epi32(quads[2], k.octs_hi, quads[3]);
  const __m512i lane0 = _mm512_maskz_shuffle_i64x2(0xFF, lo_a, lo_b, 0x44);
  const __m512i lane1 = _mm512_maskz_shuffle_i64x2(0xFF, lo_a, lo_b, 0xEE);
  const __m512i lane2 = _mm512_maskz_shuffle_i64x2(0xFF, hi_a, hi_b, 0x44);
  const __m512i lane3 = _mm512_maskz_shuffle_i64x2(0xFF, hi_a, hi_b, 0xEE);
  StepSums s;
  s.d0 = lane0;
  s.d012 = _mm512_add_epi32(lane0, _mm512_add_epi32(lane1, lane2));
  s.d = _mm512_add_epi32(s.d012, lane3);
  return s;
}

/// One step of row `i` over the candidates at `cand` (columns j0..j0+15,
/// of which the lanes in `valid` exist).  Returns the lanes pruned.
template <bool Cross, bool Tail>
inline unsigned step(__m512i q2, const Descriptor256* cand, std::size_t j0,
                     __mmask16 valid, std::size_t i, Row& row,
                     const ScanSlots& slots, const Consts& k) noexcept {
  StepSums s = step_sums(q2, cand, k);
  // Lanes past the end get an infinite distance: they then update
  // nothing, and their flags are masked off below.
  if constexpr (Tail) s.d = _mm512_mask_mov_epi32(k.inf, valid, s.d);

  // Exclusive prefix: lane j gets the two smallest distances of the lanes
  // before it, then of everything the row saw before this step.
  __m512i best = shift_up<1>(s.d, k.inf);
  __m512i best_in = shift_up<1>(best, k.inf);
  __m512i second = vmax(best, best_in);
  best = vmin(best, best_in);
  merge_round<2>(best, second, k.inf);
  merge_round<4>(best, second, k.inf);
  merge_round<8>(best, second, k.inf);
  second = vmin(vmin(vmax(best, row.best), second), row.second);
  best = vmin(best, row.best);

  // The scalar loop moves best_j at every strict improvement; the last
  // one in this step is the step's verdict.
  const __mmask16 improves = _mm512_cmplt_epi32_mask(s.d, best);
  if (improves != 0) {
    row.best_j = j0 + static_cast<std::size_t>(std::bit_width(
                          static_cast<unsigned>(improves))) - 1;
  }

  __m512i bound = second;
  if constexpr (Cross) {
    const __m512i col_best =
        _mm512_maskz_loadu_epi32(valid, slots.col_best + j0);
    const __m512i col_second =
        _mm512_maskz_loadu_epi32(valid, slots.col_second + j0);
    bound = vmax(second, col_second);
    // d < col_best: a new winner, the old best drops to second.  Else
    // d < col_second: a new second.  Both as min/max of sorted pairs.
    const __mmask16 wins = _mm512_cmplt_epi32_mask(s.d, col_best);
    _mm512_mask_storeu_epi32(slots.col_second + j0, valid,
                             vmin(vmax(s.d, col_best), col_second));
    _mm512_mask_storeu_epi32(slots.col_best + j0, valid,
                             vmin(s.d, col_best));
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
  const __mmask16 pruned0 =
      _mm512_mask_cmpge_epi32_mask(valid, s.d0, bound);
  const __mmask16 pruned012 = _mm512_mask_cmpge_epi32_mask(
      static_cast<__mmask16>(valid & ~pruned0), s.d012, bound);

  // Carry the inclusive pair of the last lane into the next step.
  const __m512i next_best = vmin(best, s.d);
  const __m512i next_second = vmin(vmax(best, s.d), second);
  row.best =
      _mm512_maskz_permutexvar_epi32(kAllLanes, k.last_lane, next_best);
  row.second =
      _mm512_maskz_permutexvar_epi32(kAllLanes, k.last_lane, next_second);

  return 3u * static_cast<unsigned>(
                  std::popcount(static_cast<unsigned>(pruned0))) +
         static_cast<unsigned>(
             std::popcount(static_cast<unsigned>(pruned012)));
}

template <bool Cross>
std::uint64_t scan(const Descriptor256* a, std::size_t na,
                   const Descriptor256* b, std::size_t nb,
                   const BinaryMatchParams& params, const ScanSlots& slots) {
  const Consts k;
  const std::size_t full = nb / kStep * kStep;
  const std::size_t rest = nb - full;
  const auto rest_valid = static_cast<__mmask16>((1u << rest) - 1u);
  Descriptor256 tail[kStep] = {};
  if (rest != 0) std::memcpy(tail, b + full, rest * sizeof(Descriptor256));

  std::uint64_t lanes_pruned = 0;
  for (std::size_t i = 0; i < na; ++i) {
    const __m512i q2 = _mm512_maskz_broadcast_i64x4(
        0xFF, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(a[i].bits.data())));
    Row row{k.inf, k.inf, kNone};
    for (std::size_t j0 = 0; j0 < full; j0 += kStep) {
      lanes_pruned += step<Cross, false>(q2, b + j0, j0, kAllLanes, i, row,
                                         slots, k);
    }
    if (rest != 0) {
      lanes_pruned +=
          step<Cross, true>(q2, tail, full, rest_valid, i, row, slots, k);
    }
    const int best = _mm512_cvtsi512_si32(row.best);
    const int second = _mm512_cvtsi512_si32(row.second);
    if (passes_gates(best, second, params)) {
      slots.fwd[i] = row.best_j;
      slots.fwd_dist[i] = best;
    }
  }
  return lanes_pruned;
}

}  // namespace

std::uint64_t scan_avx512(const Descriptor256* a, std::size_t na,
                          const Descriptor256* b, std::size_t nb,
                          const BinaryMatchParams& params,
                          const ScanSlots& slots) {
  return params.cross_check ? scan<true>(a, na, b, nb, params, slots)
                            : scan<false>(a, na, b, nb, params, slots);
}

}  // namespace bees::feat::detail

#endif  // BEES_HAVE_AVX512
