#include "vsj/lsh/simhash_kernel.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "vsj/util/cpu.h"
#include "vsj/util/hash.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VSJ_KERNEL_X86 1
#else
#define VSJ_KERNEL_X86 0
#endif

namespace vsj {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference — the semantics every wider width must reproduce bitwise.
// ---------------------------------------------------------------------------

inline void ProjectScalar(const double* const* rows, const float* weights,
                          size_t count, double* acc, uint32_t begin,
                          uint32_t end) {
  for (uint32_t j = begin; j < end; ++j) acc[j] = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const double weight = weights[i];
    const double* row = rows[i];
    for (uint32_t j = begin; j < end; ++j) acc[j] += weight * row[j];
  }
}

inline void MinFoldScalar(uint64_t mixed_key, const uint64_t* seed_terms,
                          uint64_t* mins, uint32_t begin, uint32_t end) {
  for (uint32_t j = begin; j < end; ++j) {
    const uint64_t h = Mix64(mixed_key + seed_terms[j]);
    if (h < mins[j]) mins[j] = h;
  }
}

#if VSJ_KERNEL_X86

// ---------------------------------------------------------------------------
// AVX2 (4 lanes). Function-level target attributes keep the binary
// runnable on CPUs without AVX2; dispatch guards every call.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i Mul64Avx2(__m256i a,
                                                         uint64_t constant) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(constant));
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i Mix64Avx2(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = Mul64Avx2(x, 0xbf58476d1ce4e5b9ULL);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = Mul64Avx2(x, 0x94d049bb133111ebULL);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
  return x;
}

__attribute__((target("avx2"))) inline __m256i MinEpu64Avx2(__m256i a,
                                                            __m256i b) {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                            _mm256_xor_si256(b, sign));
  return _mm256_blendv_epi8(a, b, a_gt_b);
}

/// Lanes [lane, lane + 4·sizeof...(V)) of ProjectRows, their sums held in
/// registers across every feature of the vector.
template <size_t... V>
__attribute__((target("avx2"))) void ProjectBlockAvx2(
    std::index_sequence<V...>, const double* const* rows,
    const float* weights, size_t count, uint32_t lane, double* acc) {
  __m256d sum[] = {((void)V, _mm256_setzero_pd())...};
  for (size_t i = 0; i < count; ++i) {
    const __m256d w = _mm256_set1_pd(static_cast<double>(weights[i]));
    const double* row = rows[i] + lane;
    ((sum[V] = _mm256_add_pd(sum[V],
                             _mm256_mul_pd(w, _mm256_loadu_pd(row + 4 * V)))),
     ...);
  }
  (_mm256_storeu_pd(acc + lane + 4 * V, sum[V]), ...);
}

using ProjectBlockFn = void (*)(const double* const*, const float*, size_t,
                                uint32_t, double*);

template <size_t kVecs>
__attribute__((target("avx2"))) void ProjectBlockOf(
    const double* const* rows, const float* weights, size_t count,
    uint32_t lane, double* acc) {
  ProjectBlockAvx2(std::make_index_sequence<kVecs>(), rows, weights, count,
                   lane, acc);
}

/// Up to 8 four-lane sums (32 functions) per pass over the features: 8
/// accumulators, the broadcast weight and a row load fit the 16 registers.
constexpr uint32_t kMaxBlockVecs = 8;

__attribute__((target("avx2"))) void ProjectAvx2(const double* const* rows,
                                                 const float* weights,
                                                 size_t count, double* acc,
                                                 uint32_t k) {
  static constexpr ProjectBlockFn kBlocks[kMaxBlockVecs + 1] = {
      nullptr,           ProjectBlockOf<1>, ProjectBlockOf<2>,
      ProjectBlockOf<3>, ProjectBlockOf<4>, ProjectBlockOf<5>,
      ProjectBlockOf<6>, ProjectBlockOf<7>, ProjectBlockOf<8>};
  uint32_t lane = 0;
  while (k - lane >= 4) {
    const uint32_t vecs = std::min((k - lane) / 4, kMaxBlockVecs);
    kBlocks[vecs](rows, weights, count, lane, acc);
    lane += 4 * vecs;
  }
  ProjectScalar(rows, weights, count, acc, lane, k);
}

__attribute__((target("avx2"))) void MinFoldAvx2(uint64_t mixed_key,
                                                 const uint64_t* seed_terms,
                                                 uint64_t* mins, uint32_t k) {
  const __m256i key = _mm256_set1_epi64x(static_cast<long long>(mixed_key));
  uint32_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256i terms = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(seed_terms + j));
    const __m256i h = Mix64Avx2(_mm256_add_epi64(key, terms));
    __m256i* slot = reinterpret_cast<__m256i*>(mins + j);
    _mm256_storeu_si256(slot, MinEpu64Avx2(_mm256_loadu_si256(slot), h));
  }
  MinFoldScalar(mixed_key, seed_terms, mins, j, k);
}

#endif  // VSJ_KERNEL_X86

}  // namespace

void ProjectRows(const double* const* rows, const float* weights,
                 size_t count, double* acc, uint32_t k) {
#if VSJ_KERNEL_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    ProjectAvx2(rows, weights, count, acc, k);
    return;
  }
#endif
  ProjectScalar(rows, weights, count, acc, 0, k);
}

void MinFoldLanes(uint64_t mixed_key, const uint64_t* seed_terms,
                  uint64_t* mins, uint32_t k) {
#if VSJ_KERNEL_X86
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    MinFoldAvx2(mixed_key, seed_terms, mins, k);
    return;
  }
#endif
  MinFoldScalar(mixed_key, seed_terms, mins, 0, k);
}

}  // namespace vsj
