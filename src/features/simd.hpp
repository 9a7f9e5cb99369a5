// Runtime ISA dispatch for the descriptor-matching kernel.  The scalar SWAR
// path is always built and always correct; explicit AVX-512, AVX2 (x86)
// and NEON (ARM) kernels are compiled when the toolchain supports them and
// selected once per process after a CPU-feature probe.  Every path is
// bit-exact with the others — same matches, distances and modeled `ops` —
// so dispatch is purely a throughput decision (see DESIGN.md §13 for the
// equivalence argument).
//
// Overrides, strongest first:
//  * force_simd_isa(isa) — programmatic pin, used by the differential
//    property tests and the ISA-dispatch bench smoke.
//  * BEES_FORCE_SCALAR environment variable (any value but "0") — forces
//    the scalar SWAR kernel, the knob differential harnesses use to diff a
//    production binary against its own fallback.
//  * CPU probe: AVX-512 when the CPU reports AVX512F and AVX512_VPOPCNTDQ,
//    else AVX2 when it reports that, NEON on ARM builds, scalar otherwise.
#pragma once

namespace bees::feat {

enum class SimdIsa {
  kScalar = 0,  ///< Portable SWAR popcount (always available).
  kAvx2 = 1,    ///< 1 candidate per 256-bit vector, pshufb popcount.
  kNeon = 2,    ///< 1 candidate per two 128-bit vectors, vcnt popcount.
  kAvx512 = 3,  ///< 16 candidates per step, vpopcntd, per-lane row state.
};

/// The ISA the kernel will actually run: the forced override if one is
/// set, else scalar under BEES_FORCE_SCALAR, else the best ISA this CPU
/// and build support.  Cheap (one relaxed atomic load after first call).
SimdIsa active_simd_isa();

/// The best ISA the probe found, ignoring overrides.
SimdIsa detected_simd_isa();

/// Pins the active ISA for this process (tests / bench smoke).  Pinning an
/// ISA the build or CPU does not support falls back to scalar.  Pass
/// reset=true via clear_forced_simd_isa() to return to the probe.
void force_simd_isa(SimdIsa isa);
void clear_forced_simd_isa();

/// Stable lowercase name: "scalar", "avx2", "neon", "avx512".
const char* simd_isa_name(SimdIsa isa);

}  // namespace bees::feat
