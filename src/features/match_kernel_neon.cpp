// NEON lane kernel: one candidate descriptor per iteration as two 128-bit
// halves (lanes 0-1 and 2-3), popcount via vcntq_u8 with pairwise widening
// reductions — vpaddl u8->u16->u32->u64 sums each 8-byte half separately,
// so each uint64x2 result holds two per-lane Hamming distances, stored
// directly into the sums buffer.  vld1q/vst1q need only element alignment,
// so candidates are read in place (match_lanes.hpp).  Compiled only on ARM
// builds (BEES_HAVE_NEON); NEON is baseline on AArch64, so no runtime
// probe is needed beyond the build gate.
#if defined(BEES_HAVE_NEON)

#include <arm_neon.h>

#include "features/match_lanes.hpp"

namespace bees::feat::detail {

namespace {

/// Popcounts of the two 64-bit words in `v`, one per output lane.
inline uint64x2_t popcount_words(uint64x2_t v) noexcept {
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

}  // namespace

void lane_rows_neon(const Descriptor256& q, const Descriptor256* b,
                    std::size_t n, std::uint64_t* sums) {
  const uint64x2_t q01 = vld1q_u64(q.bits.data());
  const uint64x2_t q23 = vld1q_u64(q.bits.data() + 2);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* cand = b[j].bits.data();
    const uint64x2_t d01 = popcount_words(veorq_u64(vld1q_u64(cand), q01));
    const uint64x2_t d23 =
        popcount_words(veorq_u64(vld1q_u64(cand + 2), q23));
    vst1q_u64(sums + kLaneBlock * j, d01);
    vst1q_u64(sums + kLaneBlock * j + 2, d23);
  }
}

}  // namespace bees::feat::detail

#endif  // BEES_HAVE_NEON
