// Fast binary-descriptor matching kernel: the optimized hot path behind
// match_binary / jaccard_similarity (paper Eq. 2).  Bit-exact with the
// naive reference matcher (match_binary_naive) — same matches, same
// distances, same modeled `ops` — but cheaper:
//
//  * Candidates in place, except a per-call block copy on AVX-512: the
//    scalar, AVX2 and NEON paths read the candidate descriptors straight
//    from the caller's std::vector<Descriptor256>; the AVX-512 scan copies
//    them once per call into transposed blocks of 16 in the workspace.
//  * Cross-check in one pass: the naive matcher computes the full Hamming
//    matrix twice (forward a->b, then reverse b->a).  The kernel streams
//    each row once and maintains best/second-best for both the row (a_i
//    against all b) and every column (b_j against all a seen so far),
//    halving the descriptor-comparison work for the default mutual-check
//    path.  Tie handling is identical in both directions: the first
//    strictly-smaller index wins.
//  * Running-bound early exit (scalar loop): after the first 64-bit lane,
//    a pair whose partial distance already reaches the row's *and* the
//    column's second-best bound cannot update either side (the full
//    distance only grows), so lanes 1-3 are skipped.  The pruning is exact
//    — it can never change a winner — and the energy model's `ops` keeps
//    counting modeled comparisons exactly like the naive matcher.
//  * Runtime ISA dispatch (features/simd.hpp): on CPUs with AVX-512 F and
//    VPOPCNTDQ the whole scan runs vectorized, decisions included, 16
//    candidates per step, with each row's best and second-best kept per
//    lane and reduced at the end of the row.  On CPUs with only AVX2 (or
//    ARM builds with NEON) the per-row lane sums are computed branch-free
//    by a vector kernel into a workspace buffer, and a scalar decision
//    scan walks the buffered sums.  The vector paths take every pair in
//    full, which changes nothing the early exit skips, so matches,
//    distances and `ops` stay bit-identical to the scalar SWAR fused
//    loop, which remains the always-built fallback (BEES_FORCE_SCALAR pins
//    it for differential tests).
//
// A MatchWorkspace owns every scratch buffer the kernel needs, so rescore /
// graph loops that match one query against many candidates reuse
// allocations across calls instead of reallocating per pair.
#pragma once

#include <cstdint>
#include <vector>

#include "features/keypoint.hpp"
#include "features/matching.hpp"

namespace bees::feat {

/// Reusable scratch buffers for match_binary_kernel.  One workspace serves
/// any sequence of calls (sizes may differ per call); it is not safe to
/// share one workspace between threads — give each worker its own.
class MatchWorkspace {
 public:
  MatchWorkspace() = default;

 private:
  friend struct MatchKernelImpl;

  // Forward pass (one slot per descriptor of `a`).
  std::vector<std::size_t> fwd_;   ///< Gated nearest index in b, or npos.
  std::vector<int> fwd_dist_;      ///< Hamming distance of that match.
  // Reverse pass (one slot per descriptor of `b`).
  std::vector<int> col_best_;
  std::vector<int> col_second_;
  std::vector<std::size_t> col_best_i_;
  // Lane-kernel row buffer (detail::kLaneBlock slots per candidate):
  // per-lane Hamming sums of the current query tile, filled by the AVX2 or
  // NEON lane kernel and consumed by the scalar decision scan.
  std::vector<std::uint64_t> row_sums_;
  // Scan-kernel block copy of the call's candidates (AVX-512 only):
  // detail::scan_block_words(|b|) words, rewritten by every call.
  std::vector<std::uint32_t> scan_blocks_;
};

/// Drop-in replacement for match_binary_naive: identical matches,
/// distances, and `ops` accounting, computed with the early-exit kernel.
std::vector<Match> match_binary_kernel(const std::vector<Descriptor256>& a,
                                       const std::vector<Descriptor256>& b,
                                       const BinaryMatchParams& params,
                                       std::uint64_t* ops,
                                       MatchWorkspace& workspace);

/// Number of matches match_binary_kernel would return, without
/// materializing the match vector — the allocation-free path behind the
/// workspace overload of jaccard_similarity.
std::size_t match_binary_count(const std::vector<Descriptor256>& a,
                               const std::vector<Descriptor256>& b,
                               const BinaryMatchParams& params,
                               std::uint64_t* ops,
                               MatchWorkspace& workspace);

}  // namespace bees::feat
