// Property tests of the early-exit matching kernel against the naive
// reference matcher: identical match vectors, distances, and modeled `ops`
// over randomized descriptor sets, including the degenerate shapes (empty,
// singleton, duplicates) and both cross-check settings.  Also the ISA
// differential sweep (scalar / AVX-512 / AVX2 / NEON must agree bit for
// bit, down to the lanes_{examined,pruned} counters) and the lane kernels'
// storage contract: candidates and sums at any 8-byte-aligned address.  Labeled
// `sanitize` and `tsan` so the sanitizer presets cover the kernel's buffer
// reuse and the dispatch atomics.
#include "features/match_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

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

/// Full per-ISA observation of one kernel call: matches, ops, and the
/// modeled lane counters read back from the metrics registry.
struct IsaRun {
  std::vector<Match> matches;
  std::uint64_t ops = 0;
  double lanes_examined = 0.0;
  double lanes_pruned = 0.0;
};

IsaRun run_under_isa(SimdIsa isa, const std::vector<Descriptor256>& a,
                     const std::vector<Descriptor256>& b,
                     const BinaryMatchParams& params, MatchWorkspace& ws) {
  force_simd_isa(isa);
  IsaRun run;
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(true);
  run.matches = match_binary_kernel(a, b, params, &run.ops, ws);
  obs::set_enabled(false);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  if (snap.counters.count("feat.match.lanes_examined")) {
    run.lanes_examined = snap.counters.at("feat.match.lanes_examined");
  }
  if (snap.counters.count("feat.match.lanes_pruned")) {
    run.lanes_pruned = snap.counters.at("feat.match.lanes_pruned");
  }
  return run;
}

TEST(MatchKernelSimd, EveryIsaAgreesWithScalarBitForBit) {
  IsaGuard guard;
  util::Rng rng(20250809);
  MatchWorkspace ws;
  // kScalar always runs the fused SWAR loop; forcing an ISA this build or
  // CPU lacks falls back to scalar, so the sweep is safe everywhere and
  // differential wherever a vector unit exists.
  const SimdIsa isas[] = {SimdIsa::kAvx512, SimdIsa::kAvx2, SimdIsa::kNeon};
  // 15 and 16 sit on the AVX-512 kernel's 16-candidate step edge.
  const std::size_t sizes[] = {0, 1, 3, 15, 16, 17, 64, 131, 150};
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
        for (const SimdIsa isa : isas) {
          const IsaRun vec = run_under_isa(isa, a, b, params, ws);
          ASSERT_EQ(vec.matches.size(), scalar.matches.size())
              << simd_isa_name(isa) << " na=" << na << " nb=" << nb;
          for (std::size_t m = 0; m < scalar.matches.size(); ++m) {
            EXPECT_EQ(vec.matches[m].index_a, scalar.matches[m].index_a);
            EXPECT_EQ(vec.matches[m].index_b, scalar.matches[m].index_b);
            EXPECT_EQ(vec.matches[m].distance, scalar.matches[m].distance);
          }
          EXPECT_EQ(vec.ops, scalar.ops);
          // The modeled pruning counters replay identically too: the
          // vector path buffers lane sums but charges the same lanes.
          EXPECT_EQ(vec.lanes_examined, scalar.lanes_examined)
              << simd_isa_name(isa) << " na=" << na << " nb=" << nb;
          EXPECT_EQ(vec.lanes_pruned, scalar.lanes_pruned)
              << simd_isa_name(isa) << " na=" << na << " nb=" << nb;
        }
      }
    }
  }
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

TEST(MatchKernelObs, LaneCountersChargeTheRegistry) {
  util::Rng rng(123);
  std::vector<Descriptor256> a = random_set(12, rng);
  std::vector<Descriptor256> b = random_set(18, rng, a);
  MatchWorkspace ws;

  obs::MetricsRegistry::global().reset();
  obs::set_enabled(true);
  match_binary_kernel(a, b, {/*cross_check defaults on*/}, nullptr, ws);
  obs::set_enabled(false);

  const auto snap = obs::MetricsRegistry::global().snapshot();
  obs::MetricsRegistry::global().reset();
  ASSERT_TRUE(snap.counters.count("feat.match.lanes_examined"));
  ASSERT_TRUE(snap.counters.count("feat.match.lanes_pruned"));
  const double examined = snap.counters.at("feat.match.lanes_examined");
  const double pruned = snap.counters.at("feat.match.lanes_pruned");
  // Every (a, b) pair is visited once in the single dual-direction pass;
  // each visit accounts for exactly 4 lanes, examined or pruned.
  EXPECT_EQ(examined + pruned, 4.0 * 12 * 18);
  EXPECT_GE(examined, 1.0 * 12 * 18);  // lane 0 is always examined
}

TEST(MatchKernelObs, DisabledObsLeavesRegistryUntouched) {
  util::Rng rng(124);
  std::vector<Descriptor256> a = random_set(6, rng);
  std::vector<Descriptor256> b = random_set(6, rng);
  MatchWorkspace ws;
  obs::MetricsRegistry::global().reset();
  match_binary_kernel(a, b, {}, nullptr, ws);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.count("feat.match.lanes_examined"), 0u);
  EXPECT_EQ(snap.counters.count("feat.match.lanes_pruned"), 0u);
}

}  // namespace
}  // namespace bees::feat
