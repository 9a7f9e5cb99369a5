// AVX2 lane kernel: one candidate descriptor per 256-bit vector (its four
// 64-bit lanes), popcount via the classic pshufb nibble lookup (Mula), and
// one _mm256_sad_epu8 against zero — SAD sums each 8-byte group
// separately, so its four 64-bit results are exactly the four per-lane
// Hamming distances, stored with a single write.  Five vector instructions
// of real work per candidate, no cross-lane shuffles.  Candidates are read
// in place, so loads and stores are unaligned (match_lanes.hpp).
//
// This translation unit is the only one compiled with -mavx2, and it is
// only entered after the runtime CPU probe (features/simd.cpp) confirmed
// AVX2 — the rest of the library stays at the baseline ISA so the binary
// runs anywhere.
#if defined(BEES_HAVE_AVX2)

#include <immintrin.h>

#include "features/match_lanes.hpp"

namespace bees::feat::detail {

namespace {

/// Per-byte popcounts of each of the 32 bytes in `v`.
inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

}  // namespace

void lane_rows_avx2(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums) {
  const __m256i qv =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q.bits.data()));
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t j = 0; j < n; ++j) {
    const __m256i cand =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b[j].bits.data()));
    const __m256i diff = _mm256_xor_si256(cand, qv);
    const __m256i lane_sums = _mm256_sad_epu8(popcount_bytes(diff), zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + kLaneBlock * j),
                        lane_sums);
  }
}

}  // namespace bees::feat::detail

#endif  // BEES_HAVE_AVX2
