// Dispatched sparse-intersection kernels and the locality-ordered batch
// evaluator. Three strategies find the matching dims of a pair:
//
//  * merge / gallop: the linear merge (the reference traversal and the
//    scalar level's kernel), galloping when the long side is
//    >= kGallopRatio× the short one — at both levels;
//  * AVX2 rungs: full-residency broadcast-compare for long sides <= 16 and
//    17..32 dims, and the 4-wide window search for any longer balanced
//    pair the scatter-probe declines;
//  * scatter-probe for long balanced pairs (long side > 32 dims) at both
//    levels: the short side's positions scattered into a per-thread,
//    epoch-tagged table indexed by dim, the long side probed against it —
//    a gather and a left-pack 8 dims a step at AVX2, a scalar loop at the
//    scalar level.
//
// Bit-identity rules of this file (DESIGN.md "Batch pair evaluation"):
//
//  * Matched products are accumulated with one IEEE double multiply + add
//    per match, in increasing-dimension order, by every strategy. The SIMD
//    and scatter-probe code only *finds* match positions (the gather probe
//    packs them in lane order, which is long-side order); the accumulation
//    runs over them in the merge's order.
//  * This translation unit compiles with -ffp-contract=off (CMakeLists) so
//    `sum += wa * wb` can never contract into an FMA on targets that have
//    one — the scalar and SIMD paths must round identically everywhere,
//    including -march=native builds.
//  * The batch cosine reproduces CosineSimilarity() term for term (same
//    denominator order, same clamp, same unit snap): the batch path must
//    return exactly what the unbatched Similarity loop returns, so every
//    threshold test on it counts the same hits.

#include "vsj/vector/pair_eval.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "vsj/obs/obs.h"
#include "vsj/util/check.h"
#include "vsj/util/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define VSJ_PAIR_EVAL_X86 1
#include <immintrin.h>
#else
#define VSJ_PAIR_EVAL_X86 0
#endif

namespace vsj {

namespace {

// First index in [begin, n) with dims[idx] >= target, found by exponential
// probing from `begin` followed by a binary search over the bracketed run.
// The merge loops below advance `begin` monotonically, so consecutive
// gallops touch disjoint prefixes of the long side.
inline size_t GallopLowerBound(const DimId* dims, size_t n, size_t begin,
                               DimId target) {
  if (begin >= n || dims[begin] >= target) return begin;
  size_t bound = 1;
  while (begin + bound < n && dims[begin + bound] < target) bound <<= 1;
  const size_t lo = begin + (bound >> 1);
  const size_t hi = std::min(n, begin + bound);
  return static_cast<size_t>(
      std::lower_bound(dims + lo, dims + hi, target) - dims);
}

struct DotAccum {
  double sum = 0.0;
  uint32_t matches = 0;
};

// Reference traversal: linear merge, or galloping when the long side is
// >= kGallopRatio× the short one. Match positions arrive in increasing-
// dimension order under both strategies, which is what keeps every other
// kernel in this file exactly equal to this one.
DotAccum DotScalar(VectorRef small, VectorRef large) {
  const size_t an = small.size();
  const size_t bn = large.size();
  const DimId* a = small.dims();
  const DimId* b = large.dims();
  DotAccum acc;

  if (bn >= kGallopRatio * an) {
    size_t j = 0;
    for (size_t i = 0; i < an; ++i) {
      j = GallopLowerBound(b, bn, j, a[i]);
      if (j == bn) return acc;
      if (b[j] == a[i]) {
        acc.sum +=
            static_cast<double>(small.weight(i)) * large.weight(j);
        ++acc.matches;
        ++j;
      }
    }
    return acc;
  }

  size_t i = 0, j = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      acc.sum += static_cast<double>(small.weight(i)) * large.weight(j);
      ++acc.matches;
      ++i;
      ++j;
    }
  }
  return acc;
}

#if VSJ_PAIR_EVAL_X86

// SIMD window search, AVX2's rung for long sides over 32 dims that the
// scatter-probe declines. It needs only SSE2, which every x86-64 CPU has,
// so it carries no target attribute. For each dim of the short side
// (walked in order, so accumulation order matches the linear merge) a
// broadcast-compare checks one W-wide window of the long side at once; the
// window advances by W whenever its maximum falls below the probe. Every
// short-side dim has at most one partner (dims are strictly increasing),
// and the window only ever advances past values smaller than all remaining
// probes, so no match is missed or duplicated. The branchy 3-way compare of
// the scalar merge — mispredicted roughly once per element on real corpora
// — becomes a branchless compare+movemask that only branches on an actual
// match.
DotAccum DotWindow(VectorRef small, VectorRef large) {
  const size_t an = small.size();
  const size_t bn = large.size();
  const DimId* a = small.dims();
  const DimId* b = large.dims();
  const float* wa = small.weights();
  const float* wb = large.weights();
  DotAccum acc;

  size_t i = 0, j = 0;
  while (i < an && j + 4 <= bn) {
    const DimId probe = a[i];
    if (b[j + 3] < probe) {
      j += 4;
      continue;
    }
    const __m128i va = _mm_set1_epi32(static_cast<int>(probe));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    const int mask =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb)));
    if (mask != 0) {
      const size_t jj =
          j + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(mask)));
      acc.sum += static_cast<double>(wa[i]) * wb[jj];
      ++acc.matches;
    }
    ++i;
  }

  // Fewer than one window of the long side left: plain merge finishes.
  while (i < an && j < bn) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      acc.sum += static_cast<double>(wa[i]) * wb[j];
      ++acc.matches;
      ++i;
      ++j;
    }
  }
  return acc;
}

// Short-vector fast path: when the long side fits in two YMM registers the
// whole side is masked-loaded ONCE and every probe is a single broadcast +
// two compares — no window advance, no scalar tail. This is the common case
// on dblp-like corpora (mean length ~14): the ≥16-element window loop below
// barely engages there, exiting to its scalar tail after one advance.
// Masked lanes load as zero and a real dim of 0 would alias them, so the
// combined movemask is ANDed with the valid-lane mask before the hit test.
// Probes walk the short side in increasing-dim order and each matches at
// most one lane, so accumulation order — and therefore the rounded sum —
// is identical to the linear merge.
__attribute__((target("avx2"))) DotAccum DotAvx2Small(VectorRef small,
                                                      VectorRef large) {
  const size_t an = small.size();
  const size_t bn = large.size();  // 2 <= bn <= 16
  const DimId* a = small.dims();
  const DimId* b = large.dims();
  const float* wa = small.weights();
  const float* wb = large.weights();
  DotAccum acc;

  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lo_mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(bn)), lane);
  const __m256i b_lo =
      _mm256_maskload_epi32(reinterpret_cast<const int*>(b), lo_mask);
  __m256i b_hi = _mm256_setzero_si256();
  if (bn > 8) {
    const __m256i hi_mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(bn) - 8), lane);
    b_hi = _mm256_maskload_epi32(reinterpret_cast<const int*>(b + 8),
                                 hi_mask);
  }
  const uint32_t valid = (uint32_t{1} << bn) - 1u;

  for (size_t i = 0; i < an; ++i) {
    const __m256i probe = _mm256_set1_epi32(static_cast<int>(a[i]));
    uint32_t hits = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(probe, b_lo))));
    hits |= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(probe, b_hi))))
            << 8;
    hits &= valid;
    if (hits != 0) {
      const size_t jj = static_cast<size_t>(__builtin_ctz(hits));
      acc.sum += static_cast<double>(wa[i]) * wb[jj];
      ++acc.matches;
    }
  }
  return acc;
}

// Same idea, one more rung: long sides of 17..32 dims live in four YMM
// registers. Covers ~96% of dblp-like pairs together with the 2-register
// path (vector lengths are lognormal around ~14; >32 dims is the ~2% tail).
__attribute__((target("avx2"))) DotAccum DotAvx2Small32(VectorRef small,
                                                        VectorRef large) {
  const size_t an = small.size();
  const size_t bn = large.size();  // 17 <= bn <= 32
  const DimId* a = small.dims();
  const DimId* b = large.dims();
  const float* wa = small.weights();
  const float* wb = large.weights();
  DotAccum acc;

  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i b0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  const __m256i b1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 8));
  const __m256i m2 = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(bn) - 16), lane);
  const __m256i b2 =
      _mm256_maskload_epi32(reinterpret_cast<const int*>(b + 16), m2);
  __m256i b3 = _mm256_setzero_si256();
  if (bn > 24) {
    const __m256i m3 = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(bn) - 24), lane);
    b3 = _mm256_maskload_epi32(reinterpret_cast<const int*>(b + 24), m3);
  }
  const uint32_t valid =
      bn == 32 ? 0xffffffffu : (uint32_t{1} << bn) - 1u;

  for (size_t i = 0; i < an; ++i) {
    const __m256i probe = _mm256_set1_epi32(static_cast<int>(a[i]));
    uint32_t hits = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(probe, b0))));
    hits |= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(probe, b1))))
            << 8;
    hits |= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(probe, b2))))
            << 16;
    hits |= static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                _mm256_cmpeq_epi32(probe, b3))))
            << 24;
    hits &= valid;
    if (hits != 0) {
      const size_t jj = static_cast<size_t>(__builtin_ctz(hits));
      acc.sum += static_cast<double>(wa[i]) * wb[jj];
      ++acc.matches;
    }
  }
  return acc;
}

// Long sides of more than 32 dims reach this only when the scatter-probe
// declines the pair (see PairDotCountWith); the window search serves them.
__attribute__((target("avx2"))) DotAccum DotAvx2(VectorRef small,
                                                 VectorRef large) {
  if (large.size() <= 16) return DotAvx2Small(small, large);
  if (large.size() <= 32) return DotAvx2Small32(small, large);
  return DotWindow(small, large);
}

#endif  // VSJ_PAIR_EVAL_X86

// Scatter-probe, the long balanced-pair path (long side > 32 dims, below
// the gallop ratio) at both levels. The branchy "advance or probe" step of
// a merge or window search mispredicts about once per element on TF-IDF
// vectors of a few hundred dims; this kernel has no data-dependent branch
// in its inner loop:
//
//  1. scatter: slot[dim - first short dim] = tag | (short position + 1),
//     where the tag is the thread's epoch, bumped once per call;
//  2. probe: walk the long side in increasing-dim order, reading each dim's
//     slot and compacting the hits — slots carrying this call's tag — as
//     (long position, short position + 1) into a chunk buffer: 8 dims per
//     step with a gather and a left-pack at the AVX2 level, one at a time
//     at the scalar level;
//  3. accumulate double(w_short) * w_long over the chunk's matches in that
//     order.
//
// No pass clears the slots: a slot written by an earlier call carries an
// older epoch and never matches. The table is zeroed only when it grows or
// when the 16-bit epoch wraps, so every epoch is used once between zeroings.
//
// On sorted input the matches of step 3 are exactly the merge's matches in
// the merge's (increasing-dim) order, so the rounded sum is bit-identical.
// Slot indices are bounded to the table on *any* input: a dim outside the
// short side's span reads the sentinel slot at index `span`, written 0 on
// every call, and a short-side dim outside it is not scattered — unsorted
// dims give a finite (meaningless) result, never an out-of-bounds access.
//
// Positions are stored +1 in the slot's low 16 bits, so a short side of
// 65535 or more entries, or one whose dims span more than 2^16 ids, is
// declined and the caller's level kernel serves the pair.
constexpr size_t kScatterMinLong = 32;
constexpr uint64_t kScatterMaxSpan = uint64_t{1} << 16;
constexpr size_t kScatterMaxShort = 65535;
constexpr size_t kScatterChunk = 128;
constexpr uint32_t kScatterMaxEpoch = 0xffff;

// The per-thread slot table. ScatterProbe grows it lazily to the largest
// span seen (rounded up to a power of two, plus the sentinel): 32 KB on
// nyt-like vectors, at most 256 KB + 4 B, and never allocated by a thread
// that only sees short vectors. `epoch` is the tag of the current call, in
// [1, kScatterMaxEpoch]; 0 is never a live tag, so zeroed slots never match.
struct ScatterTable {
  std::vector<uint32_t> slots;
  uint32_t epoch = 0;
};

ScatterTable& ThreadScatterTable() {
  thread_local ScatterTable table;
  return table;
}

// Probes long-side positions [j, j1) against the table, appending each hit's
// long position and short position + 1 at hit_long/hit_short[hits]; returns
// the new hit count. Branchless: every position is written, and only a hit
// advances the count.
inline size_t ProbeScalar(const DimId* b, size_t j, size_t j1, DimId base,
                          uint32_t span, const uint32_t* slots,
                          uint32_t epoch, uint32_t* hit_long,
                          uint32_t* hit_short, size_t hits) {
  for (; j < j1; ++j) {
    const uint32_t s = b[j] - base;
    const uint32_t slot = slots[s < span ? s : span];
    hit_long[hits] = static_cast<uint32_t>(j);
    hit_short[hits] = slot & 0xffffu;
    hits += (slot >> 16) == epoch;
  }
  return hits;
}

#if VSJ_PAIR_EVAL_X86

// kLeftPack[m] lists the set lanes of the 8-bit mask m in increasing order,
// so a permute by it moves the hit lanes to the front, in lane order.
struct LeftPackTable {
  uint8_t lanes[256][8];
};

constexpr LeftPackTable MakeLeftPackTable() {
  LeftPackTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) t.lanes[m][k++] = static_cast<uint8_t>(lane);
    }
  }
  return t;
}

alignas(64) constexpr LeftPackTable kLeftPack = MakeLeftPackTable();

// ProbeScalar 8 dims at a time: clamp the 8 slot indices to the sentinel,
// gather the slots, compare their tags with the epoch, and left-pack the
// hit lanes' positions into the buffers. A full 8-lane store is always
// made; only the hit count says which entries are live. The caller's chunk
// of at most kScatterChunk positions bounds every store to the buffers.
__attribute__((target("avx2"))) inline size_t ProbeAvx2(
    const DimId* b, size_t j, size_t j1, DimId base, uint32_t span,
    const uint32_t* slots, uint32_t epoch, uint32_t* hit_long,
    uint32_t* hit_short, size_t hits) {
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i vspan = _mm256_set1_epi32(static_cast<int>(span));
  const __m256i vepoch = _mm256_set1_epi32(static_cast<int>(epoch));
  const __m256i low16 = _mm256_set1_epi32(0xffff);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; j + 8 <= j1; j += 8) {
    const __m256i dims =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i index =
        _mm256_min_epu32(_mm256_sub_epi32(dims, vbase), vspan);
    const __m256i slot = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(slots), index, 4);
    const auto mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_srli_epi32(slot, 16),
                                               vepoch))));
    const __m256i pack = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(kLeftPack.lanes[mask])));
    const __m256i positions = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(j)), lane);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hit_long + hits),
                        _mm256_permutevar8x32_epi32(positions, pack));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(hit_short + hits),
        _mm256_permutevar8x32_epi32(_mm256_and_si256(slot, low16), pack));
    hits += static_cast<size_t>(__builtin_popcount(mask));
  }
  return ProbeScalar(b, j, j1, base, span, slots, epoch, hit_long, hit_short,
                     hits);
}

#endif  // VSJ_PAIR_EVAL_X86

// Returns false, touching nothing, when the pair is outside the kernel's
// range (see above); *acc is the pair's result otherwise. `Probe` is the
// level's probe step (ProbeScalar or ProbeAvx2); each level's Scatter below
// inlines this body, so the probe inlines into it.
template <size_t (*Probe)(const DimId*, size_t, size_t, DimId, uint32_t,
                          const uint32_t*, uint32_t, uint32_t*, uint32_t*,
                          size_t)>
__attribute__((always_inline)) inline bool ScatterProbe(VectorRef small,
                                                        VectorRef large,
                                                        ScatterTable& table,
                                                        DotAccum* acc) {
  const size_t an = small.size();
  const size_t bn = large.size();
  const DimId* a = small.dims();
  const DimId* b = large.dims();
  const float* wa = small.weights();
  const float* wb = large.weights();
  if (an >= kScatterMaxShort || a[an - 1] < a[0]) return false;
  const DimId base = a[0];
  if (uint64_t{a[an - 1]} - base + 1 > kScatterMaxSpan) return false;
  const auto span = static_cast<uint32_t>(a[an - 1] - base + 1);
  if (table.slots.size() <= span) {
    table.slots.assign(std::bit_ceil(span) + size_t{1}, 0);
  }
  if (++table.epoch > kScatterMaxEpoch) {
    std::fill(table.slots.begin(), table.slots.end(), 0u);
    table.epoch = 1;
  }
  const uint32_t epoch = table.epoch;
  uint32_t* slots = table.slots.data();

  const uint32_t tag = epoch << 16;
  for (size_t i = 0; i < an; ++i) {
    const uint32_t s = a[i] - base;
    if (s < span) slots[s] = tag | static_cast<uint32_t>(i + 1);
  }
  slots[span] = 0;

  DotAccum out;
  uint32_t hit_long[kScatterChunk];
  uint32_t hit_short[kScatterChunk];
  for (size_t j0 = 0; j0 < bn; j0 += kScatterChunk) {
    const size_t j1 = std::min(bn, j0 + kScatterChunk);
    const size_t hits =
        Probe(b, j0, j1, base, span, slots, epoch, hit_long, hit_short, 0);
    for (size_t h = 0; h < hits; ++h) {
      out.sum += static_cast<double>(wa[hit_short[h] - 1]) * wb[hit_long[h]];
    }
    out.matches += static_cast<uint32_t>(hits);
  }
  *acc = out;
  return true;
}

// One dispatch level: `Dot` is its kernel for the pairs the scatter-probe
// does not take, `Scatter` its scatter-probe.
struct ScalarKernels {
  static DotAccum Dot(VectorRef s, VectorRef l) { return DotScalar(s, l); }
  static bool Scatter(VectorRef s, VectorRef l, ScatterTable& table,
                      DotAccum* acc) {
    return ScatterProbe<ProbeScalar>(s, l, table, acc);
  }
};

#if VSJ_PAIR_EVAL_X86
struct Avx2Kernels {
  static DotAccum Dot(VectorRef s, VectorRef l) { return DotAvx2(s, l); }
  __attribute__((target("avx2"))) static bool Scatter(VectorRef s,
                                                      VectorRef l,
                                                      ScatterTable& table,
                                                      DotAccum* acc) {
    return ScatterProbe<ProbeAvx2>(s, l, table, acc);
  }
};
#endif

// The short-circuits, the small/large swap, and the choice between gallop,
// scatter-probe and the level kernel, templated on the level's kernels so
// the batch loop below can bind the dispatched level ONCE per batch instead
// of re-reading it per pair (ActiveSimdLevel() is an out-of-line call; at
// ~14-dim dblp vectors it was measurable in the estimate profile). The
// caller looks the thread's scatter table up once, too. Degenerate pairs
// (either side empty, or dimension ranges fully disjoint) return {0, 0}
// before any kernel runs, so every level is indistinguishable on them;
// pair_eval_test pins this. Ordered so no dims pointer is dereferenced
// until both sides are known non-empty.
template <typename Kernels>
inline PairDotResult PairDotCountWith(VectorRef a, VectorRef b,
                                      Kernels kernels, ScatterTable& table) {
  if (a.empty() || b.empty()) return {};
  if (a.dim(a.size() - 1) < b.dim(0) || b.dim(b.size() - 1) < a.dim(0)) {
    return {};
  }

  VectorRef small = a;
  VectorRef large = b;
  if (small.size() > large.size()) std::swap(small, large);

  DotAccum acc;
  // Heavily skewed pairs take the galloping skip at every level: it visits
  // O(small · log large) elements, already sublinear in the window scan.
  if (large.size() >= kGallopRatio * small.size()) {
    acc = DotScalar(small, large);
  } else if (large.size() <= kScatterMinLong ||
             !kernels.Scatter(small, large, table, &acc)) {
    acc = kernels.Dot(small, large);
  }
  return PairDotResult{acc.sum, acc.matches};
}

// Calls body(kernels) with `level`'s kernels — Avx2Kernels or ScalarKernels
// — so each level instantiates its own inlined loop and the level is read
// once per call, not per pair.
template <typename Body>
inline auto WithLevelKernel([[maybe_unused]] SimdLevel level, Body&& body) {
#if VSJ_PAIR_EVAL_X86
  if (level == SimdLevel::kAvx2) return body(Avx2Kernels{});
#endif
  return body(ScalarKernels{});
}

// CosineSimilarity() with the Dot already in hand — term-for-term the same
// expression (denominator order, clamp, unit snap), so the batch evaluator
// reaches bit-identical similarity values while reusing the traversal's
// match count for the density histogram.
inline double CosineFromDot(double dot, VectorRef u, VectorRef v) {
  const double denom = u.norm() * v.norm();
  if (denom == 0.0) return 0.0;
  return SnapUnitSimilarity(std::min(dot / denom, 1.0));
}

struct BatchStats {
  uint64_t matches = 0;
  uint64_t min_len = 0;
};

// The cosine batch loop, templated on the kernel: dispatch resolved by the
// caller, per-pair work is just prefetch + traversal + CosineFromDot.
template <typename Kernels>
inline void RunCosineBatch(const VectorRef* u, const VectorRef* v,
                           const uint8_t* order, size_t count,
                           Kernels kernels, double* similarities,
                           BatchStats* stats) {
  ScatterTable& table = ThreadScatterTable();
  for (size_t k = 0; k < count; ++k) {
    if (k + kPairPrefetchDistance < count) {
      PrefetchFeatures(u[order[k + kPairPrefetchDistance]]);
      PrefetchFeatures(v[order[k + kPairPrefetchDistance]]);
    }
    const size_t i = order[k];
    const PairDotResult r = PairDotCountWith(u[i], v[i], kernels, table);
    stats->matches += r.matches;
    stats->min_len += std::min(u[i].size(), v[i].size());
    similarities[i] = CosineFromDot(r.dot, u[i], v[i]);
  }
}

}  // namespace

PairDotResult PairDotCount(VectorRef a, VectorRef b) {
  // Single-pair entry (VectorRef::Dot/OverlapSize): one dispatch per call.
  // Batch callers go through EvaluatePairBatch, which hoists the dispatch.
  ScatterTable& table = ThreadScatterTable();
  return WithLevelKernel(ActiveSimdLevel(), [&](auto kernels) {
    return PairDotCountWith(a, b, kernels, table);
  });
}

// Cache-line alignment of this function raises the alignment of the whole
// translation unit's code to 64 bytes, so the kernels' hot loops keep one
// placement relative to cache lines whatever code the linker puts before
// them. Without it, a 48-byte shift from an unrelated change to another file
// cost sweep_cold about 10% of its estimates/s.
__attribute__((aligned(64))) void EvaluatePairSimilarities(
    SimilarityMeasure measure, DatasetView dataset, const VectorId* firsts,
    const VectorId* seconds, size_t count, double* similarities) {
  VSJ_CHECK(count <= kPairEvalBatch);
  if (count == 0) return;

  // Materialize every VectorRef once. The storage indirection (DatasetView's
  // ref_fn_) used to run three times per side per pair — prefetch lead,
  // prefetch ahead, evaluation — which on the streaming backing means three
  // slot-table lookups through a function pointer. Once is enough.
  VectorRef u[kPairEvalBatch];
  VectorRef v[kPairEvalBatch];
  uint8_t order[kPairEvalBatch];
  for (size_t i = 0; i < count; ++i) {
    u[i] = dataset[firsts[i]];
    v[i] = dataset[seconds[i]];
    order[i] = static_cast<uint8_t>(i);
  }

  // Locality order (NeedleTail): evaluate pairs sorted by the smallest
  // arena offset they touch, so consecutive evaluations walk the feature
  // arena near-sequentially instead of hopping between random chunks.
  // Pointers are compared as integers because streaming chunks are separate
  // allocations. The sort runs over packed (offset key, index) words — the
  // low 6 bits carry the batch index, which both breaks ties and rides
  // along for free. Reordering only pays when the batch actually spans more
  // memory than the cache can hold: when every pair in the batch already
  // sits within a cache-scale span (kLocalitySortSpanBytes, roughly L2),
  // evaluation order cannot change what is resident and the sort would be
  // pure overhead, so draw order is kept. Hit bits stay keyed by the
  // original index either way, so callers see draw order; the count is
  // order-insensitive (pinned by the reorder-invariance tests).
  uint64_t keyed[kPairEvalBatch];
  uint64_t min_key = ~uint64_t{0};
  uint64_t max_key = 0;
  for (size_t i = 0; i < count; ++i) {
    const auto up = reinterpret_cast<uintptr_t>(u[i].dims());
    const auto vp = reinterpret_cast<uintptr_t>(v[i].dims());
    const uint64_t key = static_cast<uint64_t>(up < vp ? up : vp);
    min_key = key < min_key ? key : min_key;
    max_key = key > max_key ? key : max_key;
    keyed[i] = (key << 6) | static_cast<uint64_t>(i);
  }
  const bool locality_sorted = max_key - min_key > kLocalitySortSpanBytes;
  if (locality_sorted) {
    std::sort(keyed, keyed + count);
    for (size_t i = 0; i < count; ++i) {
      order[i] = static_cast<uint8_t>(keyed[i] & 63u);
    }
  }

  const size_t lead = std::min<size_t>(count, kPairPrefetchDistance);
  for (size_t k = 0; k < lead; ++k) {
    PrefetchFeatures(u[order[k]]);
    PrefetchFeatures(v[order[k]]);
  }

  // Dispatch bound once for the whole batch: the cosine loop instantiates
  // per level, so the per-pair path has no level read, no measure test, and
  // a direct kernel call. Jaccard's weighted min/max walk over the union is
  // order-sensitive FP accumulation that the dot traversal cannot reproduce,
  // so that measure keeps the scalar Similarity routine per pair.
  const SimdLevel level = ActiveSimdLevel();
  BatchStats stats;
  if (measure == SimilarityMeasure::kCosine) {
    WithLevelKernel(level, [&](auto kernels) {
      RunCosineBatch(u, v, order, count, kernels, similarities, &stats);
    });
  } else {
    for (size_t k = 0; k < count; ++k) {
      if (k + kPairPrefetchDistance < count) {
        PrefetchFeatures(u[order[k + kPairPrefetchDistance]]);
        PrefetchFeatures(v[order[k + kPairPrefetchDistance]]);
      }
      const size_t i = order[k];
      similarities[i] = JaccardSimilarity(u[i], v[i]);
    }
  }

  // Bulk post-batch instrumentation only; the pair loop stays bare (the
  // metrics overhead gate in CI holds the dot kernel to <= 5%).
  VSJ_COUNTER_ADD("pair_eval.batches", 1);
  VSJ_COUNTER_ADD("pair_eval.pairs", count);
  if (locality_sorted) VSJ_COUNTER_ADD("pair_eval.locality_sorted", 1);
  if (level == SimdLevel::kAvx2) {
    VSJ_COUNTER_ADD("pair_eval.dispatch.avx2", 1);
  } else {
    VSJ_COUNTER_ADD("pair_eval.dispatch.scalar", 1);
  }
  VSJ_HIST_RECORD("pair_eval.batch_fill_pct",
                  count * 100 / kPairEvalBatch);
  if (measure == SimilarityMeasure::kCosine && stats.min_len > 0) {
    VSJ_HIST_RECORD("pair_eval.intersection_density_pct",
                    stats.matches * 100 / stats.min_len);
  }
}

uint64_t SimilarityHitMask(const double* similarities, size_t count,
                           double tau) {
  uint64_t mask = 0;
  for (size_t i = 0; i < count; ++i) {
    if (similarities[i] >= tau) mask |= uint64_t{1} << i;
  }
  return mask;
}

uint64_t EvaluatePairBatch(SimilarityMeasure measure, DatasetView dataset,
                           const VectorId* firsts, const VectorId* seconds,
                           size_t count, double tau, uint64_t* hit_mask) {
  double similarities[kPairEvalBatch];
  EvaluatePairSimilarities(measure, dataset, firsts, seconds, count,
                           similarities);
  const uint64_t mask = SimilarityHitMask(similarities, count, tau);
  if (hit_mask != nullptr) *hit_mask = mask;
  return static_cast<uint64_t>(__builtin_popcountll(mask));
}

uint64_t CountPairsAtOrAbove(SimilarityMeasure measure, DatasetView dataset,
                             const VectorId* firsts, const VectorId* seconds,
                             size_t count, double tau) {
  uint64_t hits = 0;
  for (size_t off = 0; off < count; off += kPairEvalBatch) {
    const size_t chunk = std::min<size_t>(kPairEvalBatch, count - off);
    hits += EvaluatePairBatch(measure, dataset, firsts + off, seconds + off,
                              chunk, tau, nullptr);
  }
  return hits;
}

}  // namespace vsj
