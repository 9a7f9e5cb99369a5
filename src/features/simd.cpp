#include "features/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "features/match_lanes.hpp"

namespace bees::feat {

namespace {

constexpr int kNoForce = -1;
std::atomic<int> g_forced{kNoForce};

bool scalar_forced_by_env() {
  const char* v = std::getenv("BEES_FORCE_SCALAR");
  return v != nullptr && std::string(v) != "0";
}

#if defined(BEES_HAVE_AVX512)
/// True when the CPU reports everything the AVX-512 scan kernel runs.
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vpopcntdq");
}
#endif

SimdIsa probe() {
#if defined(BEES_HAVE_AVX512)
  if (cpu_has_avx512()) return SimdIsa::kAvx512;
#endif
#if defined(BEES_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
#endif
#if defined(BEES_HAVE_NEON)
  return SimdIsa::kNeon;
#endif
  return SimdIsa::kScalar;
}

/// True when this build carries a kernel for `isa` and the CPU can run it.
bool supported(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
#if defined(BEES_HAVE_AVX2)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdIsa::kNeon:
#if defined(BEES_HAVE_NEON)
      return true;
#else
      return false;
#endif
    case SimdIsa::kAvx512:
#if defined(BEES_HAVE_AVX512)
      return cpu_has_avx512();
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

SimdIsa detected_simd_isa() {
  static const SimdIsa isa = probe();
  return isa;
}

SimdIsa active_simd_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != kNoForce) return static_cast<SimdIsa>(forced);
  static const SimdIsa env_checked =
      scalar_forced_by_env() ? SimdIsa::kScalar : detected_simd_isa();
  return env_checked;
}

void force_simd_isa(SimdIsa isa) {
  if (!supported(isa)) isa = SimdIsa::kScalar;
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_forced_simd_isa() {
  g_forced.store(kNoForce, std::memory_order_relaxed);
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

namespace detail {

ScanFn active_scan() {
#if defined(BEES_HAVE_AVX512)
  if (active_simd_isa() == SimdIsa::kAvx512) return &scan_avx512;
#endif
  return nullptr;
}

LaneRowFn active_lane_rows() {
  switch (active_simd_isa()) {
#if defined(BEES_HAVE_AVX2)
    case SimdIsa::kAvx2:
      return &lane_rows_avx2;
#endif
#if defined(BEES_HAVE_NEON)
    case SimdIsa::kNeon:
      return &lane_rows_neon;
#endif
    default:
      return nullptr;
  }
}

}  // namespace detail

}  // namespace bees::feat
