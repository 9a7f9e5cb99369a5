// Microbenchmarks (google-benchmark) of the substrate the figures are
// built on: feature extraction, matching, LSH queries, the codec, and the
// SSMM maximizer.  These are wall-clock benchmarks of the library itself
// (the figure benches use the analytic cost model instead).
//
// `micro_features --smoke` instead runs the ISA-dispatch smoke: the match
// kernel is run forced-scalar (SWAR) and under every vector ISA this build
// and CPU can run (AVX-512, AVX2, NEON), asserting each produces the
// scalar matches, distances, and modeled op counts, and measuring its
// speedup.  The smoke *enforces* the >= 2x bar for every runnable vector
// ISA at its best of 100/250/500 descriptors and prints AVX-512 over AVX2
// where both run; on scalar-only machines it checks nothing.  When
// BEES_BENCH_JSON names a directory the rows (one per ISA and size) are
// written to <dir>/BENCH_matching_simd.json, the schema of
// bench/baselines/BENCH_matching_simd.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "features/fast.hpp"
#include "features/match_kernel.hpp"
#include "features/orb.hpp"
#include "features/sift.hpp"
#include "features/similarity.hpp"
#include "features/simd.hpp"
#include "imaging/codec.hpp"
#include "imaging/synth.hpp"
#include "imaging/transform.hpp"
#include "index/feature_index.hpp"
#include "submodular/ssmm.hpp"
#include "util/rng.hpp"
#include "workload/image_store.hpp"
#include "workload/imageset.hpp"

namespace {

using namespace bees;

img::Image scene_sized(int width) {
  return img::render_scene(img::SceneSpec{77, 18, 4}, width, width * 3 / 4);
}

void BM_RenderScene(benchmark::State& state) {
  const auto width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        img::render_scene(img::SceneSpec{77, 18, 4}, width, width * 3 / 4));
  }
}
BENCHMARK(BM_RenderScene)->Arg(240)->Arg(480);

void BM_OrbExtract(benchmark::State& state) {
  const img::Image scene = scene_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::extract_orb(scene));
  }
}
BENCHMARK(BM_OrbExtract)->Arg(240)->Arg(320)->Arg(480);

void BM_SiftExtract(benchmark::State& state) {
  const img::Image scene = scene_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::extract_sift(scene));
  }
}
BENCHMARK(BM_SiftExtract)->Arg(240)->Arg(320);

void BM_BitmapCompressedOrb(benchmark::State& state) {
  const img::Image scene = scene_sized(320);
  const double proportion = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feat::extract_orb(img::bitmap_compress(scene, proportion)));
  }
}
BENCHMARK(BM_BitmapCompressedOrb)->Arg(0)->Arg(20)->Arg(40);

feat::Descriptor256 random_descriptor(util::Rng& rng) {
  feat::Descriptor256 d;
  for (auto& lane : d.bits) lane = rng.next_u64();
  return d;
}

/// Two descriptor sets shaped like matching views of one scene: `overlap`
/// of b's descriptors are bit-flipped copies of a's (as ORB produces for a
/// re-observed patch), the rest are unrelated.  This is the workload
/// CBRD/IBRD rescoring feeds the matcher.
std::pair<std::vector<feat::Descriptor256>, std::vector<feat::Descriptor256>>
matching_sets(std::size_t n, double overlap, util::Rng& rng) {
  std::vector<feat::Descriptor256> a, b;
  for (std::size_t i = 0; i < n; ++i) a.push_back(random_descriptor(rng));
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < overlap) {
      feat::Descriptor256 d = a[rng.index(a.size())];
      const int flips = static_cast<int>(rng.index(40));
      for (int f = 0; f < flips; ++f) {
        const int bit = static_cast<int>(rng.index(256));
        d.bits[static_cast<std::size_t>(bit >> 6)] ^= std::uint64_t{1}
                                                      << (bit & 63);
      }
      b.push_back(d);
    } else {
      b.push_back(random_descriptor(rng));
    }
  }
  return {std::move(a), std::move(b)};
}

/// The naive reference matcher (two full Hamming passes, no pruning).
void BM_MatchBinaryNaive(benchmark::State& state) {
  util::Rng rng(41);
  const auto [a, b] =
      matching_sets(static_cast<std::size_t>(state.range(0)), 0.4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::match_binary_naive(a, b));
  }
}
BENCHMARK(BM_MatchBinaryNaive)->Arg(100)->Arg(250)->Arg(500);

/// The single-pass early-exit kernel on the same sets.
void BM_MatchBinaryKernel(benchmark::State& state) {
  util::Rng rng(41);
  const auto [a, b] =
      matching_sets(static_cast<std::size_t>(state.range(0)), 0.4, rng);
  feat::MatchWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feat::match_binary_kernel(a, b, {}, nullptr, workspace));
  }
}
BENCHMARK(BM_MatchBinaryKernel)->Arg(100)->Arg(250)->Arg(500);

/// End-to-end jaccard_similarity (paper Eq. 2) through the naive matcher —
/// the pre-kernel hot path, kept as the speedup baseline.
void BM_JaccardNaive(benchmark::State& state) {
  util::Rng rng(43);
  const auto n = static_cast<std::size_t>(state.range(0));
  feat::BinaryFeatures fa, fb;
  std::tie(fa.descriptors, fb.descriptors) = matching_sets(n, 0.4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::jaccard_from_matches(
        fa.size(), fb.size(),
        feat::match_binary_naive(fa.descriptors, fb.descriptors).size()));
  }
}
BENCHMARK(BM_JaccardNaive)->Arg(100)->Arg(250)->Arg(500);

/// End-to-end jaccard_similarity through the kernel + workspace — what
/// FeatureIndex::rescore and the IBRD graph build now run per pair.
void BM_JaccardKernel(benchmark::State& state) {
  util::Rng rng(43);
  const auto n = static_cast<std::size_t>(state.range(0));
  feat::BinaryFeatures fa, fb;
  std::tie(fa.descriptors, fb.descriptors) = matching_sets(n, 0.4, rng);
  feat::MatchWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feat::jaccard_similarity(fa, fb, {}, nullptr, workspace));
  }
}
BENCHMARK(BM_JaccardKernel)->Arg(100)->Arg(250)->Arg(500);

void BM_JaccardSimilarity(benchmark::State& state) {
  util::Rng rng(5);
  img::ViewPerturbation pert;
  const img::SceneSpec spec{99, 18, 4};
  const auto a = feat::extract_orb(img::render_view(spec, 320, 240, pert, rng));
  const auto b = feat::extract_orb(img::render_view(spec, 320, 240, pert, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::jaccard_similarity(a, b));
  }
}
BENCHMARK(BM_JaccardSimilarity);

void BM_LshQuery(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const wl::Imageset set = wl::make_kentucky_like(n, 1, 256, 192, 1501);
  wl::ImageStore store;
  idx::FeatureIndex index;
  for (const auto& spec : set.images) index.insert(store.orb(spec, 0.0));
  const auto& query = store.orb(set.images[0], 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query(query, 4));
  }
}
BENCHMARK(BM_LshQuery)->Arg(50)->Arg(100);

void BM_CodecEncode(benchmark::State& state) {
  const img::Image scene = scene_sized(320);
  const auto quality = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::encode_jpeg_like(scene, quality));
  }
}
BENCHMARK(BM_CodecEncode)->Arg(15)->Arg(85);

void BM_CodecDecode(benchmark::State& state) {
  const auto bytes = img::encode_jpeg_like(scene_sized(320), 85);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::decode_jpeg_like(bytes));
  }
}
BENCHMARK(BM_CodecDecode);

void BM_SsmmSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  sub::SimilarityGraph graph(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(0.15)) graph.set_weight(i, j, rng.uniform(0.02, 0.6));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub::select_unique_images(graph, 0.019, {}));
  }
}
BENCHMARK(BM_SsmmSelect)->Arg(50)->Arg(100)->Arg(200);

void BM_GaussianBlur(benchmark::State& state) {
  const img::Image scene = img::to_gray(scene_sized(320));
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::gaussian_blur(scene, 1.5));
  }
}
BENCHMARK(BM_GaussianBlur);

// The remaining AFE kernels at 269x202, the bitmap EAC hands ORB at 60%
// battery (a 320x240 capture shrunk by 16%).
img::Image eac_bitmap() {
  return img::render_scene(img::SceneSpec{77, 18, 4}, 269, 202);
}

void BM_ToGray(benchmark::State& state) {
  const img::Image scene = eac_bitmap();
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::to_gray(scene));
  }
}
BENCHMARK(BM_ToGray);

/// ORB's first pyramid step: the gray bitmap downscaled by 1.25.
void BM_Resize(benchmark::State& state) {
  const img::Image gray = img::to_gray(eac_bitmap());
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::resize(gray, 215, 162));
  }
}
BENCHMARK(BM_Resize);

/// FAST-9 on the blurred level-0 bitmap with ORB's threshold and border.
void BM_DetectFast(benchmark::State& state) {
  const img::Image blurred =
      img::gaussian_blur(img::to_gray(eac_bitmap()), 1.0);
  const feat::OrbParams orb;
  feat::FastParams params;
  params.threshold = orb.fast_threshold;
  params.border = orb.patch_radius + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::detect_fast(blurred, params));
  }
}
BENCHMARK(BM_DetectFast);

/// ORB on what perfbench's capture phase and the fleet's devices extract:
/// disaster-like 320x240 captures, shrunk by EAC at 0.16 to 269x202.  Each
/// iteration extracts one bitmap, cycling through a batch of 8.
void BM_DisasterCaptureOrb(benchmark::State& state) {
  std::vector<img::Image> bitmaps;
  for (const wl::ImageSpec& spec :
       wl::make_disaster_like(8, 0, 320, 240, 1).images) {
    bitmaps.push_back(img::bitmap_compress(spec.render(), 0.16));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        feat::extract_orb(bitmaps[i++ % bitmaps.size()]));
  }
}
BENCHMARK(BM_DisasterCaptureOrb);

constexpr int kMatchReps = 7;
constexpr int kMatchCallsPerRep = 8;

/// Wall time of one match_binary_kernel call on (a, b) under whatever ISA
/// is currently active, over kMatchReps reps of kMatchCallsPerRep calls.
/// The minimum is the estimator the bar reads: on a shared machine every
/// perturbation (container neighbors, frequency ramps) only ever adds
/// time, so the smallest rep is the closest to the kernel's true cost and
/// the speedup ratio stays stable run to run.  The median and max are
/// recorded beside it to show the spread.
bench::RepSpread time_match_ns(const std::vector<feat::Descriptor256>& a,
                               const std::vector<feat::Descriptor256>& b,
                               feat::MatchWorkspace& ws) {
  using Clock = std::chrono::steady_clock;
  benchmark::DoNotOptimize(feat::match_binary_kernel(a, b, {}, nullptr, ws));
  std::vector<double> reps(kMatchReps);
  for (double& rep : reps) {
    const auto start = Clock::now();
    for (int c = 0; c < kMatchCallsPerRep; ++c) {
      benchmark::DoNotOptimize(
          feat::match_binary_kernel(a, b, {}, nullptr, ws));
    }
    rep = std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count() /
          kMatchCallsPerRep;
  }
  return bench::spread_of(reps);
}

/// The vector ISAs this build and CPU can run, best first.
std::vector<feat::SimdIsa> runnable_vector_isas() {
  std::vector<feat::SimdIsa> isas;
  for (const feat::SimdIsa isa :
       {feat::SimdIsa::kAvx512, feat::SimdIsa::kAvx2, feat::SimdIsa::kNeon}) {
    feat::force_simd_isa(isa);  // falls back to scalar when unsupported
    if (feat::active_simd_isa() == isa) isas.push_back(isa);
  }
  feat::clear_forced_simd_isa();
  return isas;
}

/// The ISA-dispatch smoke (see file comment).  Returns a process exit
/// code: 1 on any scalar/vector mismatch, or when a runnable vector ISA
/// misses the 2x bar at every measured size.
int simd_dispatch_smoke() {
  const std::vector<feat::SimdIsa> isas = runnable_vector_isas();
  std::fprintf(stderr, "simd smoke: detected %s, checking",
               feat::simd_isa_name(feat::detected_simd_isa()));
  for (const feat::SimdIsa isa : isas) {
    std::fprintf(stderr, " %s", feat::simd_isa_name(isa));
  }
  std::fprintf(stderr, "%s\n", isas.empty() ? " no vector ISA" : "");

  const std::array<std::size_t, 3> sizes = {100, 250, 500};
  bench::BenchJson json("matching_simd");
  std::vector<double> best_speedup(isas.size(), 0.0);
  for (const std::size_t n : sizes) {
    util::Rng rng(41);
    const auto [a, b] = matching_sets(n, 0.4, rng);
    feat::MatchWorkspace ws;

    feat::force_simd_isa(feat::SimdIsa::kScalar);
    std::uint64_t scalar_ops = 0;
    const std::vector<feat::Match> scalar_matches =
        feat::match_binary_kernel(a, b, {}, &scalar_ops, ws);
    const bench::RepSpread scalar = time_match_ns(a, b, ws);

    std::vector<bench::RepSpread> isa_ns(isas.size());
    for (std::size_t k = 0; k < isas.size(); ++k) {
      const char* name = feat::simd_isa_name(isas[k]);
      feat::force_simd_isa(isas[k]);
      std::uint64_t ops = 0;
      const std::vector<feat::Match> matches =
          feat::match_binary_kernel(a, b, {}, &ops, ws);
      bool exact =
          scalar_matches.size() == matches.size() && scalar_ops == ops;
      for (std::size_t i = 0; exact && i < scalar_matches.size(); ++i) {
        exact = scalar_matches[i].index_a == matches[i].index_a &&
                scalar_matches[i].index_b == matches[i].index_b &&
                scalar_matches[i].distance == matches[i].distance;
      }
      if (!exact) {
        std::fprintf(stderr,
                     "simd smoke: FAIL %zux%zu: %s result differs from "
                     "scalar (%zu vs %zu matches, ops %llu vs %llu)\n",
                     n, n, name, matches.size(), scalar_matches.size(),
                     static_cast<unsigned long long>(ops),
                     static_cast<unsigned long long>(scalar_ops));
        feat::clear_forced_simd_isa();
        return 1;
      }
      isa_ns[k] = time_match_ns(a, b, ws);
      const double speedup =
          isa_ns[k].min > 0.0 ? scalar.min / isa_ns[k].min : 0.0;
      // The bar applies to each kernel's best size: the scalar loop's
      // pruning legitimately closes part of the gap as the candidate count
      // grows, so the claim enforced is "the vector path is >= 2x where it
      // is used at its best", not "2x at one arbitrary size".
      best_speedup[k] = std::max(best_speedup[k], speedup);
      std::fprintf(stderr,
                   "simd smoke: %zux%zu exact; scalar %.0f ns, %s %.0f ns, "
                   "speedup %.2fx\n",
                   n, n, scalar.min, name, isa_ns[k].min, speedup);
      json.add("simd/match/" + std::string(name) + "/" + std::to_string(n),
               {{"reps", scalar.reps},
                {"calls_per_rep", kMatchCallsPerRep},
                {"scalar_ns_min", scalar.min},
                {"scalar_ns_median", scalar.median},
                {"scalar_ns_max", scalar.max},
                {"vector_ns_min", isa_ns[k].min},
                {"vector_ns_median", isa_ns[k].median},
                {"vector_ns_max", isa_ns[k].max},
                {"real_time_speedup", speedup}});
    }
    if (isas.size() >= 2 && isas[0] == feat::SimdIsa::kAvx512 &&
        isas[1] == feat::SimdIsa::kAvx2) {
      std::fprintf(stderr, "simd smoke: %zux%zu avx512 over avx2 %.2fx\n",
                   n, n, isa_ns[1].min / isa_ns[0].min);
    }
  }
  feat::clear_forced_simd_isa();

  int status = 0;
  for (std::size_t k = 0; k < isas.size(); ++k) {
    if (best_speedup[k] < 2.0) {
      std::fprintf(stderr,
                   "simd smoke: FAIL %s best speedup %.2fx < 2x\n",
                   feat::simd_isa_name(isas[k]), best_speedup[k]);
      status = 1;
    }
  }
  if (isas.empty()) {
    std::fprintf(stderr,
                 "simd smoke: scalar-only (no vector ISA runnable); speedup "
                 "bar not enforced\n");
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return simd_dispatch_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
