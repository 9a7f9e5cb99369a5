// Property tests of the early-exit matching kernel against the naive
// reference matcher: identical match vectors, distances, and modeled `ops`
// over randomized descriptor sets, including the degenerate shapes (empty,
// singleton, duplicates) and both cross-check settings.  Also the ISA
// differential sweep (scalar / AVX-512 / AVX2 / NEON must agree bit for
// bit, at sizes on and around the AVX-512 kernel's 16-candidate blocks),
// targeted rows for that kernel's end-of-row lane reduction, and the lane
// kernels' storage contract: candidates and sums at any 8-byte-aligned
// address.  Labeled `sanitize` and `tsan` so the sanitizer presets cover
// the kernel's buffer reuse and the dispatch atomics.
#include "features/match_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>

#include "features/match_lanes.hpp"
#include "features/simd.hpp"
#include "features/similarity.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace bees::feat {
namespace {

static_assert(detail::kLaneBlock == 4,
              "one 256-bit descriptor is four 64-bit words");

Descriptor256 random_descriptor(util::Rng& rng) {
  Descriptor256 d;
  for (auto& lane : d.bits) lane = rng.next_u64();
  return d;
}

Descriptor256 flip_bits(Descriptor256 d, int count, util::Rng& rng) {
  for (int i = 0; i < count; ++i) {
    const int bit = static_cast<int>(rng.index(256));
    d.bits[static_cast<std::size_t>(bit >> 6)] ^= std::uint64_t{1}
                                                  << (bit & 63);
  }
  return d;
}

/// A descriptor set with correlated structure: fresh random descriptors,
/// near-duplicates of earlier members of `seeded_from` (so best/second
/// distances spread out and both gates and pruning trigger), and exact
/// duplicates (tie-break coverage).
std::vector<Descriptor256> random_set(std::size_t n, util::Rng& rng,
                                      const std::vector<Descriptor256>&
                                          seeded_from = {}) {
  std::vector<Descriptor256> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.3 && !seeded_from.empty()) {
      // Near-duplicate of a descriptor from the other set.
      const auto& base = seeded_from[rng.index(seeded_from.size())];
      out.push_back(flip_bits(base, static_cast<int>(rng.index(60)), rng));
    } else if (roll < 0.45 && !out.empty()) {
      // Exact duplicate within this set: exercises first-index ties.
      out.push_back(out[rng.index(out.size())]);
    } else if (roll < 0.6 && !out.empty()) {
      // Near-duplicate within this set: tightens second-best bounds.
      out.push_back(
          flip_bits(out[rng.index(out.size())],
                    static_cast<int>(rng.index(30)), rng));
    } else {
      out.push_back(random_descriptor(rng));
    }
  }
  return out;
}

void expect_identical(const std::vector<Descriptor256>& a,
                      const std::vector<Descriptor256>& b,
                      const BinaryMatchParams& params, MatchWorkspace& ws) {
  std::uint64_t naive_ops = 0;
  std::uint64_t kernel_ops = 0;
  const auto expected = match_binary_naive(a, b, params, &naive_ops);
  const auto actual = match_binary_kernel(a, b, params, &kernel_ops, ws);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t m = 0; m < expected.size(); ++m) {
    EXPECT_EQ(actual[m].index_a, expected[m].index_a);
    EXPECT_EQ(actual[m].index_b, expected[m].index_b);
    EXPECT_EQ(actual[m].distance, expected[m].distance);
  }
  EXPECT_EQ(kernel_ops, naive_ops);
  // The count-only path agrees too (it backs the workspace overload of
  // jaccard_similarity).
  std::uint64_t count_ops = 0;
  EXPECT_EQ(match_binary_count(a, b, params, &count_ops, ws),
            expected.size());
  EXPECT_EQ(count_ops, naive_ops);
}

TEST(MatchKernelProperty, MatchesNaiveOnRandomizedSets) {
  util::Rng rng(20250807);
  // One workspace reused across every shape below: catches stale-buffer
  // bugs when sizes shrink and grow between calls.
  MatchWorkspace ws;
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 16, 33, 64};
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t na : sizes) {
      for (const std::size_t nb : sizes) {
        const auto a = random_set(na, rng);
        const auto b = random_set(nb, rng, a);
        BinaryMatchParams params;
        params.cross_check = (round % 2 == 0);
        // Sweep the gates so both accept and reject paths run.
        params.max_distance = (round < 2) ? 48 : 256;
        params.ratio = (round < 2) ? 0.8 : 1.0;
        expect_identical(a, b, params, ws);
      }
    }
  }
}

TEST(MatchKernelProperty, MatchesNaiveOnDuplicateHeavySets) {
  util::Rng rng(77);
  MatchWorkspace ws;
  // All-identical descriptors: every distance ties at 0; the kernel must
  // reproduce the naive first-index winners exactly.
  const Descriptor256 base = random_descriptor(rng);
  std::vector<Descriptor256> dup_a(9, base);
  std::vector<Descriptor256> dup_b(5, base);
  for (const bool cross : {true, false}) {
    BinaryMatchParams params;
    params.cross_check = cross;
    params.ratio = 1.0;
    expect_identical(dup_a, dup_b, params, ws);
  }
}

TEST(MatchKernelProperty, WorkspaceJaccardMatchesPlainOverload) {
  util::Rng rng(99);
  MatchWorkspace ws;
  for (int trial = 0; trial < 8; ++trial) {
    BinaryFeatures a, b;
    a.descriptors = random_set(rng.index(40), rng);
    b.descriptors = random_set(rng.index(40), rng, a.descriptors);
    std::uint64_t ops_plain = 0;
    std::uint64_t ops_ws = 0;
    const double plain = jaccard_similarity(a, b, {}, &ops_plain);
    const double with_ws = jaccard_similarity(a, b, {}, &ops_ws, ws);
    EXPECT_DOUBLE_EQ(with_ws, plain);
    EXPECT_EQ(ops_ws, ops_plain);
  }
}

/// Restores probe-based dispatch even when a test body fails mid-sweep.
struct IsaGuard {
  ~IsaGuard() { clear_forced_simd_isa(); }
};

/// Full per-ISA observation of one kernel call: matches and ops.
struct IsaRun {
  std::vector<Match> matches;
  std::uint64_t ops = 0;
};

IsaRun run_under_isa(SimdIsa isa, const std::vector<Descriptor256>& a,
                     const std::vector<Descriptor256>& b,
                     const BinaryMatchParams& params, MatchWorkspace& ws) {
  force_simd_isa(isa);
  IsaRun run;
  run.matches = match_binary_kernel(a, b, params, &run.ops, ws);
  return run;
}

/// kScalar always runs the fused SWAR loop; forcing an ISA this build or
/// CPU lacks falls back to scalar, so a sweep over these is safe everywhere
/// and differential wherever a vector unit exists.
constexpr SimdIsa kVectorIsas[] = {SimdIsa::kAvx512, SimdIsa::kAvx2,
                                   SimdIsa::kNeon};

void expect_same_run(const IsaRun& vec, const IsaRun& scalar, SimdIsa isa,
                     std::size_t na, std::size_t nb) {
  ASSERT_EQ(vec.matches.size(), scalar.matches.size())
      << simd_isa_name(isa) << " na=" << na << " nb=" << nb;
  for (std::size_t m = 0; m < scalar.matches.size(); ++m) {
    EXPECT_EQ(vec.matches[m].index_a, scalar.matches[m].index_a);
    EXPECT_EQ(vec.matches[m].index_b, scalar.matches[m].index_b);
    EXPECT_EQ(vec.matches[m].distance, scalar.matches[m].distance);
  }
  EXPECT_EQ(vec.ops, scalar.ops)
      << simd_isa_name(isa) << " na=" << na << " nb=" << nb;
}

TEST(MatchKernelSimd, EveryIsaAgreesWithScalarBitForBit) {
  IsaGuard guard;
  util::Rng rng(20250809);
  MatchWorkspace ws;
  // 15-17, 31-33 and 48 sit on the edges of the AVX-512 kernel's
  // 16-candidate blocks.
  const std::size_t sizes[] = {0,  1,  3,  15, 16, 17,  31,
                               32, 33, 48, 64, 131, 150};
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t na : sizes) {
      for (const std::size_t nb : sizes) {
        const auto a = random_set(na, rng);
        const auto b = random_set(nb, rng, a);
        BinaryMatchParams params;
        params.cross_check = (round % 2 == 0);
        params.max_distance = (round == 0) ? 48 : 256;
        params.ratio = (round == 0) ? 0.8 : 1.0;
        const IsaRun scalar =
            run_under_isa(SimdIsa::kScalar, a, b, params, ws);
        for (const SimdIsa isa : kVectorIsas) {
          expect_same_run(run_under_isa(isa, a, b, params, ws), scalar, isa,
                          na, nb);
        }
      }
    }
  }
}

/// `q` with `count` consecutive bits flipped from bit `first` (mod 256):
/// exactly `count` away from q.
Descriptor256 at_distance(const Descriptor256& q, int first, int count) {
  Descriptor256 d = q;
  for (int k = 0; k < count; ++k) {
    const int bit = (first + k) % 256;
    d.bits[static_cast<std::size_t>(bit >> 6)] ^= std::uint64_t{1}
                                                  << (bit & 63);
  }
  return d;
}

/// One query row against `b` under every ISA and both cross-check
/// settings: each run must equal the naive matcher and hold exactly
/// `expected` (the index of b matched, or none).
void expect_row(const Descriptor256& q, const std::vector<Descriptor256>& b,
                double ratio, std::optional<std::size_t> expected) {
  IsaGuard guard;
  MatchWorkspace ws;
  const std::vector<Descriptor256> a = {q};
  for (const bool cross : {true, false}) {
    BinaryMatchParams params;
    params.cross_check = cross;
    params.max_distance = 256;
    params.ratio = ratio;
    std::uint64_t naive_ops = 0;
    const IsaRun naive{match_binary_naive(a, b, params, &naive_ops),
                       naive_ops};
    ASSERT_EQ(naive.matches.size(), expected ? 1u : 0u)
        << "ratio " << ratio << " cross " << cross;
    if (expected) {
      EXPECT_EQ(naive.matches[0].index_b, *expected);
    }
    for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx512,
                              SimdIsa::kAvx2, SimdIsa::kNeon}) {
      expect_same_run(run_under_isa(isa, a, b, params, ws), naive, isa, 1,
                      b.size());
    }
  }
}

TEST(MatchKernelSimd, TiedMinimumAcrossLanesKeepsFirstIndex) {
  // The row minimum sits at j and j + 1 (two lanes) and, in one variant,
  // again at j + 16 (j's own lane one block later); every other candidate
  // is far.  The first index must win, and second must equal best: a ratio
  // of 1 rejects the row, a ratio just above 1 accepts it at j.
  util::Rng rng(601);
  const Descriptor256 q = random_descriptor(rng);
  for (const std::size_t j : {std::size_t{0}, std::size_t{5},
                              std::size_t{15}}) {
    for (const bool same_lane : {true, false}) {
      std::vector<Descriptor256> b;
      for (std::size_t c = 0; c < 40; ++c) {
        const int first = static_cast<int>(7 * c);
        const bool tied =
            c == j || c == j + 1 || (same_lane && c == j + 16);
        b.push_back(at_distance(q, first, tied ? 20 : 120));
      }
      SCOPED_TRACE(testing::Message()
                   << "j=" << j << " same_lane=" << same_lane);
      expect_row(q, b, 1.0, std::nullopt);
      expect_row(q, b, 1.01, j);
    }
  }
}

TEST(MatchKernelSimd, RowSecondFromTheBestLanesOwnSecond) {
  // The two smallest distances sit in one lane (j = 3 and j = 19); every
  // other candidate is far, so second must be 19's distance (20), not the
  // next lane best (120).  10 < 0.6 * 20 accepts the row at 3; 10 is not
  // under 0.4 * 20, so that ratio rejects it.
  util::Rng rng(602);
  const Descriptor256 q = random_descriptor(rng);
  std::vector<Descriptor256> b;
  for (std::size_t c = 0; c < 40; ++c) {
    const int first = static_cast<int>(7 * c);
    const int dist = c == 3 ? 10 : c == 19 ? 20 : 120;
    b.push_back(at_distance(q, first, dist));
  }
  expect_row(q, b, 0.6, 3);
  expect_row(q, b, 0.4, std::nullopt);
}

TEST(MatchKernelSimd, ForcingUnavailableIsaFallsBackToScalar) {
  IsaGuard guard;
#if !defined(BEES_HAVE_NEON)
  force_simd_isa(SimdIsa::kNeon);
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
#endif
#if !defined(BEES_HAVE_AVX2)
  force_simd_isa(SimdIsa::kAvx2);
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
#endif
#if !defined(BEES_HAVE_AVX512)
  force_simd_isa(SimdIsa::kAvx512);
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
#endif
  force_simd_isa(SimdIsa::kScalar);
  EXPECT_EQ(active_simd_isa(), SimdIsa::kScalar);
  clear_forced_simd_isa();
  EXPECT_EQ(active_simd_isa(), detected_simd_isa());
}

TEST(MatchKernelSimd, LaneRowsReadMisalignedStorage) {
  IsaGuard guard;
  util::Rng rng(55);
  constexpr std::size_t kN = 37;
  const Descriptor256 q = random_descriptor(rng);
  const std::vector<Descriptor256> src = random_set(kN, rng);
  // Candidates and sums both start 8 bytes past a 32-byte boundary: legal
  // for any std::vector<Descriptor256>, and never a valid address for an
  // aligned 256-bit load or store.
  alignas(32) std::byte cand_raw[8 + kN * sizeof(Descriptor256)];
  std::memcpy(cand_raw + 8, src.data(), kN * sizeof(Descriptor256));
  const Descriptor256* b =
      std::launder(reinterpret_cast<const Descriptor256*>(cand_raw + 8));
  alignas(32) std::uint64_t sums_raw[1 + detail::kLaneBlock * kN];
  std::uint64_t* sums = sums_raw + 1;

  force_simd_isa(SimdIsa::kScalar);
  EXPECT_EQ(detail::active_lane_rows(), nullptr);  // the fused loop runs
  for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    force_simd_isa(isa);
    if (active_simd_isa() != isa) continue;  // not in this build or CPU
    const detail::LaneRowFn lane_rows = detail::active_lane_rows();
    ASSERT_NE(lane_rows, nullptr) << simd_isa_name(isa);
    std::fill(sums, sums + detail::kLaneBlock * kN, ~std::uint64_t{0});
    lane_rows(q, b, kN, sums);
    for (std::size_t j = 0; j < kN; ++j) {
      for (std::size_t l = 0; l < detail::kLaneBlock; ++l) {
        EXPECT_EQ(sums[detail::kLaneBlock * j + l],
                  static_cast<std::uint64_t>(
                      std::popcount(q.bits[l] ^ src[j].bits[l])))
            << simd_isa_name(isa) << " j=" << j << " lane " << l;
      }
    }
  }
}

TEST(MatchKernelObs, DisabledObsLeavesRegistryUntouched) {
  util::Rng rng(124);
  std::vector<Descriptor256> a = random_set(6, rng);
  std::vector<Descriptor256> b = random_set(6, rng);
  MatchWorkspace ws;
  obs::MetricsRegistry::global().reset();
  match_binary_kernel(a, b, {}, nullptr, ws);
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().counters.count(
          "feat.match.simd_lanes"),
      0u);

  // With obs on, a vector path charges its lane words (none on scalar).
  obs::set_enabled(true);
  match_binary_kernel(a, b, {}, nullptr, ws);
  obs::set_enabled(false);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  if (active_simd_isa() == SimdIsa::kScalar) {
    EXPECT_EQ(snap.counters.count("feat.match.simd_lanes"), 0u);
  } else {
    ASSERT_EQ(snap.counters.count("feat.match.simd_lanes"), 1u);
    EXPECT_EQ(snap.counters.at("feat.match.simd_lanes"), 4.0 * 6 * 6);
  }
}

}  // namespace
}  // namespace bees::feat
