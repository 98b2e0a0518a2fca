// Vectorized hashing kernels for the LSH families — the index-build hot
// path made SIMD-wide while staying bit-identical to the scalar code.
//
// Both kernels vectorize *across the k hash functions*: lane j owns
// function j, so the per-function accumulation (or min-fold) order over the
// features is exactly the scalar order and no floating-point reassociation
// ever happens. Concretely:
//
//   * ProjectRows — SimHash, one call per vector. acc[j] sums
//     weight_i * row_i[j] over the vector's features in order, each term
//     one IEEE multiply followed by one IEEE add (never an FMA; the
//     translation unit is built with -ffp-contract=off so the scalar
//     fallback cannot contract either). Identical rounding per lane at
//     every width. The AVX2 body keeps up to 32 lanes' sums in registers
//     across all the features and picks its width once per vector.
//
//   * MinFoldLanes — MinHash. mins[j] = min(mins[j], Mix64(key + terms[j]))
//     per lane; pure 64-bit integer arithmetic, so bit-identity is trivial
//     once the lane owns the function.
//
// Width is chosen at runtime from util/cpu.h (scalar or AVX2; the AVX2
// bodies are compiled with a function-level target attribute, so the
// binary stays runnable on plain x86-64, where it runs scalar). The
// dispatch bit-identity suite (tests/lsh/simd_dispatch_test.cc) pins AVX2
// against scalar.

#ifndef VSJ_LSH_SIMHASH_KERNEL_H_
#define VSJ_LSH_SIMHASH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace vsj {

/// acc[j] = Σ_i weights[i] · rows[i][j] for j in [0, k), summed from +0.0
/// over i = 0, 1, …, count − 1 in order — SimHash's k projections of one
/// vector, given each feature's weight and its k Gaussian components.
void ProjectRows(const double* const* rows, const float* weights,
                 size_t count, double* acc, uint32_t k);

/// mins[j] = min(mins[j], Mix64(mixed_key + seed_terms[j])) for j in
/// [0, k) — the MinHash inner loop over one set element. `mixed_key` is
/// Mix64(element key); `seed_terms[j]` is fn_seed_j * kGoldenGamma + 1, so
/// the lane computes exactly HashCombine(element key, fn_seed_j).
void MinFoldLanes(uint64_t mixed_key, const uint64_t* seed_terms,
                  uint64_t* mins, uint32_t k);

}  // namespace vsj

#endif  // VSJ_LSH_SIMHASH_KERNEL_H_
