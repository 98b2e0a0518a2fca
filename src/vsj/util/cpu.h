// Runtime SIMD dispatch for the hot-path kernels.
//
// The hot-path kernels (lsh/simhash_kernel.h hashing, vector/pair_eval.h
// sparse intersection) are compiled in two widths — scalar and AVX2 — and
// selected once at runtime from CPU feature detection; x86 hosts without
// AVX2 and non-x86 builds run scalar. Both widths are bit-identical by
// construction (DESIGN.md "Hot-path kernels", "Batch pair evaluation"), so
// the level is a pure throughput knob; the dispatch bit-identity suites pin
// the contract.
//
// Overrides:
//   VSJ_FORCE_SCALAR=1  force the scalar kernels (the CI cross-check)
//   SetSimdLevel()      in-process override (the per-level bench rows and
//                       the dispatch suites)

#ifndef VSJ_UTIL_CPU_H_
#define VSJ_UTIL_CPU_H_

namespace vsj {

/// Kernel widths, ordered: a CPU supporting level L supports all levels
/// below it. The values are the `simd.active_level` gauge's.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 2,
};

/// Short lowercase name ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

/// The widest level the CPU supports, ignoring every override. Non-x86
/// builds always report kScalar (only the scalar kernels are compiled).
SimdLevel DetectSimdLevel();

/// The level the kernels actually dispatch to: detection, or scalar under
/// VSJ_FORCE_SCALAR=1 (read once), unless SetSimdLevel overrides it.
SimdLevel ActiveSimdLevel();

/// In-process override of ActiveSimdLevel(), clamped to DetectSimdLevel().
/// Returns the level actually installed. Backs the per-level bench rows
/// and the dispatch test suites. Not thread-safe:
/// call only while no kernel runs concurrently (all current callers are
/// single-threaded setup code).
SimdLevel SetSimdLevel(SimdLevel level);

/// Drops the in-process override, restoring detection + environment.
void ResetSimdLevel();

}  // namespace vsj

#endif  // VSJ_UTIL_CPU_H_
